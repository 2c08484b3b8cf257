package dataflow

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// PlanSpec is the structural identity of a physical plan — everything about
// a graph that must match between distributed participants for exchanged
// batches, barriers and state blobs to mean the same thing on both ends.
//
// It deliberately carries no behavior: closures (operator and source
// factories) cannot cross a process boundary, so distribution is SPMD —
// every process rebuilds the identical graph from code, and the spec is the
// checksum that proves they did. The coordinator ships its spec with the
// plan; a worker whose locally built graph fingerprints differently refuses
// to run rather than silently exchanging mismatched streams.
type PlanSpec struct {
	Name         string
	BatchSize    int
	BufferSize   int
	NumKeyGroups int
	Chaining     bool
	Nodes        []NodeSpec
}

// NodeSpec mirrors one graph vertex; Config is empty but for Configured ones.
type NodeSpec struct {
	ID          int
	Name        string
	Parallelism int
	Source      bool
	Pinned      bool
	In          []EdgeSpec
	Config      string `json:",omitempty"`
}

// Configured is an operator whose settings decide what it computes. Config
// renders them for the plan spec, so a participant whose operator is
// configured otherwise than its coordinator's refuses the plan.
type Configured interface {
	Config() string
}

// EdgeSpec mirrors one incoming edge: the upstream node ID and the
// partitioning that routes data across it.
type EdgeSpec struct {
	From int
	Part uint8
}

// SpecOf extracts the spec of a graph (each operator instantiated once for
// its Config). Chaining is part of the physical plan (it decides which edges
// exist at runtime), so it is folded into the spec, not carried separately.
func SpecOf(g *Graph, chaining bool) PlanSpec {
	s := PlanSpec{
		Name:         g.Name,
		BatchSize:    g.BatchSize,
		BufferSize:   g.BufferSize,
		NumKeyGroups: g.NumKeyGroups,
		Chaining:     chaining,
	}
	for _, n := range g.Nodes() {
		ns := NodeSpec{
			ID:          n.ID,
			Name:        n.Name,
			Parallelism: n.Parallelism,
			Source:      n.NewSource != nil,
			Pinned:      n.Pinned,
		}
		if n.NewOperator != nil {
			if c, ok := n.NewOperator().(Configured); ok {
				ns.Config = c.Config()
			}
		}
		for _, e := range n.In {
			ns.In = append(ns.In, EdgeSpec{From: e.From.ID, Part: uint8(e.Part)})
		}
		s.Nodes = append(s.Nodes, ns)
	}
	return s
}

// Fingerprint returns a stable hex digest of the spec. Node and edge order
// are construction order, identical across SPMD rebuilds, and JSON encodes
// struct fields in declaration order — so equal plans hash equal. (Gob is
// unsuitable here: its wire type IDs come from a process-global counter in
// first-reflection order, so two processes that gob-encoded different types
// earlier would hash the same spec differently.)
func (s PlanSpec) Fingerprint() string {
	data, err := json.Marshal(s)
	if err != nil {
		// A spec is plain data; encoding can only fail on a broken type,
		// which is a programming error worth failing loudly for.
		panic(fmt.Sprintf("plan spec fingerprint: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
