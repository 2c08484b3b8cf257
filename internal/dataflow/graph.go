package dataflow

import (
	"fmt"

	"repro/internal/state"
)

// Partitioning selects how data records route from an upstream subtask to
// the downstream subtasks of an edge. Watermarks, barriers and end markers
// are always broadcast, regardless of the data partitioning.
type Partitioning uint8

const (
	// Forward sends to the same subtask index (requires equal parallelism);
	// the optimizer chains forward edges into a single goroutine.
	Forward Partitioning = iota
	// HashPartition routes by key group: Hash64(record.Key) maps to a key
	// group (modulo Graph.NumKeyGroups) and the record goes to the subtask
	// owning that group's contiguous range — the same assignment keyed
	// state is partitioned by, so routing and state always agree.
	HashPartition
	// Rebalance distributes round-robin.
	Rebalance
	// BroadcastPartition sends every record to every subtask.
	BroadcastPartition
)

// String implements fmt.Stringer.
func (p Partitioning) String() string {
	switch p {
	case Forward:
		return "forward"
	case HashPartition:
		return "hash"
	case Rebalance:
		return "rebalance"
	case BroadcastPartition:
		return "broadcast"
	}
	return fmt.Sprintf("partitioning(%d)", uint8(p))
}

// OperatorFactory produces one Operator instance per subtask.
type OperatorFactory func() Operator

// SourceFactory produces one SourceFunc instance per subtask.
type SourceFactory func(subtask, parallelism int) SourceFunc

// Node is one vertex of the job graph.
type Node struct {
	ID          int
	Name        string
	Parallelism int

	// Exactly one of NewSource / NewOperator is set.
	NewSource   SourceFactory
	NewOperator OperatorFactory

	// In lists the incoming edges (empty for sources).
	In []Edge

	// Pinned forces this node's subtasks onto the coordinator participant
	// in distributed execution (terminal sinks whose results must land in
	// the submitting process set it). Ignored by single-process runs.
	Pinned bool

	// ChainedFrom, when set by the optimizer, fuses this node into its
	// single forward-connected upstream node's subtasks.
	chained bool
}

// Edge connects an upstream node to a downstream node.
type Edge struct {
	From *Node
	Part Partitioning
}

// Graph is a job DAG under construction.
type Graph struct {
	Name  string
	nodes []*Node
	// BufferSize is the per-channel backpressure budget in records.
	// Defaults to 128. Channels carry batches, so the physical capacity is
	// BufferSize/BatchSize batches (floor 4) — a bigger batch size does not
	// silently multiply how many records may queue ahead of a blocked
	// receiver.
	BufferSize int
	// BatchSize is the number of data records staged per exchange batch
	// before it is shipped downstream. <= 0 uses DefaultBatchSize; 1
	// degenerates to per-record exchange (the ablation baseline). A purely
	// physical knob: it never changes the logical plan or its results.
	BatchSize int
	// NumKeyGroups is the number of key groups — the logical plan's unit of
	// keyed-state partitioning and of hash routing (keys map to
	// Hash64(key) % NumKeyGroups, key groups map to subtasks by contiguous
	// range). A plan constant: checkpoints restore only into a graph with
	// the same value, at any parallelism. <= 0 uses DefaultNumKeyGroups.
	NumKeyGroups int
}

// DefaultNumKeyGroups is the key-group count of plans that do not choose
// one, re-exported from the state layer.
const DefaultNumKeyGroups = state.DefaultNumKeyGroups

// numKeyGroups returns the graph's normalized key-group count.
func (g *Graph) numKeyGroups() int {
	if g.NumKeyGroups <= 0 {
		return DefaultNumKeyGroups
	}
	return g.NumKeyGroups
}

// NewGraph returns an empty job graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, BufferSize: 128, BatchSize: DefaultBatchSize}
}

// Nodes returns the nodes in insertion (topological) order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// AddSource adds a source node.
func (g *Graph) AddSource(name string, parallelism int, f SourceFactory) *Node {
	n := &Node{ID: len(g.nodes), Name: name, Parallelism: parallelism, NewSource: f}
	g.nodes = append(g.nodes, n)
	return n
}

// AddOperator adds an operator node reading from the given edges.
func (g *Graph) AddOperator(name string, parallelism int, f OperatorFactory, in ...Edge) *Node {
	n := &Node{ID: len(g.nodes), Name: name, Parallelism: parallelism, NewOperator: f, In: in}
	g.nodes = append(g.nodes, n)
	return n
}

// Validate checks structural invariants: sources have no inputs, operators
// have at least one, every edge reads a node of this graph, Forward edges
// connect equal parallelism, nodes are topologically ordered (edges only
// point backwards), and parallelism is positive.
func (g *Graph) Validate() error {
	for _, n := range g.nodes {
		if n.Parallelism <= 0 {
			return fmt.Errorf("dataflow: node %q: parallelism %d", n.Name, n.Parallelism)
		}
		switch {
		case n.NewSource != nil && n.NewOperator != nil:
			return fmt.Errorf("dataflow: node %q is both source and operator", n.Name)
		case n.NewSource == nil && n.NewOperator == nil:
			return fmt.Errorf("dataflow: node %q has neither source nor operator", n.Name)
		case n.NewSource != nil && len(n.In) > 0:
			return fmt.Errorf("dataflow: source %q has inputs", n.Name)
		case n.NewOperator != nil && len(n.In) == 0:
			return fmt.Errorf("dataflow: operator %q has no inputs", n.Name)
		}
		for _, e := range n.In {
			if e.From == nil {
				return fmt.Errorf("dataflow: node %q has nil upstream", n.Name)
			}
			if e.From.ID < 0 || e.From.ID >= len(g.nodes) || g.nodes[e.From.ID] != e.From {
				// A stream of another pipeline environment: nothing would
				// ever run its node, and this one would wait on it forever.
				return fmt.Errorf("dataflow: node %q reads %q, a node of another graph", n.Name, e.From.Name)
			}
			if e.From.ID >= n.ID {
				return fmt.Errorf("dataflow: edge %q -> %q violates topological order (cycles are not supported)",
					e.From.Name, n.Name)
			}
			if e.Part == Forward && e.From.Parallelism != n.Parallelism {
				return fmt.Errorf("dataflow: forward edge %q(%d) -> %q(%d) requires equal parallelism",
					e.From.Name, e.From.Parallelism, n.Name, n.Parallelism)
			}
		}
	}
	return nil
}

// totalSubtasks counts subtasks across all nodes (chained nodes share their
// upstream's subtasks but still snapshot separately).
func (g *Graph) totalSubtasks() int {
	n := 0
	for _, node := range g.nodes {
		n += node.Parallelism
	}
	return n
}
