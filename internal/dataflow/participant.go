package dataflow

import (
	"context"
	"sync"
)

// Distributed execution splits one job across participants: participant 0 is
// the coordinator process (it also runs subtasks — in particular every pinned
// node), participants 1..W are workers. The model is SPMD: every participant
// builds the identical Graph from code (operator factories hold closures and
// cannot travel), and only the structural plan, the placement map, and the
// recovery snapshot cross the wire. Each participant then executes exactly
// the subtasks the placement assigns to it via Job.RunParticipant; exchange
// edges whose endpoints land on different participants are carried by an
// EdgeTransport instead of a direct Go channel.

// ChannelRef identifies one physical exchange channel of a job: the edge
// (consumer node + input-edge index) and the (consumer subtask, producer
// subtask) pair. Every physical channel has exactly one producer subtask and
// one consumer subtask, so a ChannelRef names a single-writer, single-reader
// stream — the property that lets a transport preserve per-channel ordering
// (and with it ABS barrier alignment) by simple FIFO delivery.
type ChannelRef struct {
	Node int // consumer node ID
	Edge int // index into the consumer node's In edges
	To   int // consumer subtask
	From int // producer subtask
}

// Placement maps node ID -> subtask -> participant index (0 = coordinator).
// Chained nodes run inside their chain head's goroutine, so only chain-head
// entries drive execution; ComputePlacement fills chained nodes with their
// head's row for readability.
type Placement map[int][]int

// EdgeTransport provides the physical channel for an exchange edge whose
// endpoints may live on different participants. Both methods return a
// batch channel carrying the same pooled []Record batches local edges use:
// Inbound is called by the consumer's participant for each remote-producer
// channel, Outbound by the producer's participant for each remote-consumer
// channel. Control records (watermarks, barriers, end markers) travel
// in-order with data on the same channel, exactly as in-process.
type EdgeTransport interface {
	// UsePool hands the transport the job's batch pool. The job calls it
	// once, before it registers any channel.
	UsePool(p *BatchPool)
	// Inbound returns the channel the local consumer subtask receives ref's
	// batches on. buf is the channel capacity in batches. Received batches
	// come from the job's pool; the consumer returns them to it.
	Inbound(ref ChannelRef, buf int) chan []Record
	// Outbound returns the channel the local producer subtask ships ref's
	// batches into, destined for participant to. A batch sent into it
	// belongs to the transport from then on: the producer must not touch it
	// again, and the transport returns it to the job's pool once shipped.
	Outbound(ref ChannelRef, to int, buf int) chan []Record
}

// ChanTransport is the in-process EdgeTransport: both endpoints resolve a
// ChannelRef to the same Go channel, so a "remote" edge degenerates to
// exactly the channel a local edge would use — zero copies, no goroutines.
// It exists as the fast local case of the transport abstraction and lets
// multi-participant execution be exercised inside one process.
type ChanTransport struct {
	mu sync.Mutex
	m  map[ChannelRef]chan []Record
}

// NewChanTransport returns an empty in-process transport.
func NewChanTransport() *ChanTransport {
	return &ChanTransport{m: make(map[ChannelRef]chan []Record)}
}

func (t *ChanTransport) chanFor(ref ChannelRef, buf int) chan []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.m[ref]; ok {
		return c
	}
	c := make(chan []Record, buf)
	t.m[ref] = c
	return c
}

// UsePool implements EdgeTransport. A batch passes through the shared Go
// channel untouched and its consumer recycles it, as on a local edge.
func (t *ChanTransport) UsePool(*BatchPool) {}

// Inbound implements EdgeTransport.
func (t *ChanTransport) Inbound(ref ChannelRef, buf int) chan []Record {
	return t.chanFor(ref, buf)
}

// Outbound implements EdgeTransport.
func (t *ChanTransport) Outbound(ref ChannelRef, to, buf int) chan []Record {
	return t.chanFor(ref, buf)
}

// Participation configures one participant's share of a distributed run.
// Job.Run runs a local job as the only participant: no placement, no
// transport.
type Participation struct {
	// Self is this participant's index (0 = coordinator).
	Self int
	// Placement assigns every (chain-head node, subtask) to a participant.
	// All participants must use the identical map; nil places every subtask
	// here.
	Placement Placement
	// Transport carries the exchange edges that cross participants.
	Transport EdgeTransport
	// Triggers delivers checkpoint IDs to inject as barriers at this
	// participant's local sources. Nil when checkpointing is disabled.
	Triggers <-chan int64
	// Acks is where every local subtask sends its checkpoint acks, for the
	// coordinator to offer to its Checkpoints. Nil when checkpointing is
	// disabled.
	Acks chan<- Ack
	// OnRunning, if set, is called once after every local subtask is built
	// and launched — in particular after all inbound transport channels are
	// registered. The distributed protocol uses it to signal readiness
	// before any producer starts shipping remote batches.
	OnRunning func()
}

// RunParticipant executes this participant's share of the job: only subtasks
// the placement assigns to p.Self run locally, and cross-participant edges
// flow through p.Transport. It returns when all local subtasks finish, the
// context is cancelled, or a local subtask fails. Checkpoints are
// coordinated elsewhere: barriers are injected via p.Triggers and local
// subtasks ack on p.Acks; the coordinator hands those acks, and the other
// participants', to the one Checkpoints that assembles and persists them.
func (j *Job) RunParticipant(ctx context.Context, p *Participation) error {
	return j.run(ctx, p)
}

// LocalOnlySource marks sources whose data exists only in the process that
// built the graph — live channels feeding in-motion records. Placement pins
// such nodes (and their chains) to the coordinator participant; shipping
// them to a worker would read from an unconnected copy of the channel.
type LocalOnlySource interface {
	SourceLocalOnly() bool
}

// sourceLocalOnly probes a source node for the LocalOnlySource capability.
// Factories are cheap and side-effect-free until first read (validateRestore
// relies on the same property).
func sourceLocalOnly(n *Node) bool {
	if n.NewSource == nil {
		return false
	}
	lo, ok := n.NewSource(0, n.Parallelism).(LocalOnlySource)
	return ok && lo.SourceLocalOnly()
}

// ComputePlacement assigns every (chain head, subtask) of the graph to a
// participant: pinned chains (terminal sinks, live sources) go to the
// coordinator (participant 0), everything else round-robins across workers
// 1..workers so parallel subtasks of one node land on different processes.
// workers == 0 places everything on the coordinator. The function is
// deterministic: coordinator and workers compute or receive the same map.
func ComputePlacement(g *Graph, chaining bool, workers int) Placement {
	ci := buildChains(g, chaining)
	pl := make(Placement, len(g.nodes))
	for _, n := range g.nodes {
		pl[n.ID] = make([]int, n.Parallelism)
	}
	// A chain is pinned when any of its nodes is: the whole chain runs in
	// one goroutine, so pinning is a chain-level property.
	pinnedChain := func(h *Node) bool {
		if h.Pinned || sourceLocalOnly(h) {
			return true
		}
		for _, cn := range ci.links[h] {
			if cn.Pinned {
				return true
			}
		}
		return false
	}
	next := 0
	for _, n := range g.nodes {
		if ci.head[n] != n {
			continue
		}
		pinned := pinnedChain(n)
		for s := 0; s < n.Parallelism; s++ {
			w := 0
			if !pinned && workers > 0 {
				w = next%workers + 1
				next++
			}
			pl[n.ID][s] = w
		}
	}
	for _, n := range g.nodes {
		if h := ci.head[n]; h != n {
			copy(pl[n.ID], pl[h.ID])
		}
	}
	return pl
}
