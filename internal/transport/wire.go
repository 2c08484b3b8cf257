// Package transport carries STREAMLINE's distributed runtime: the TCP
// exchange transport (Mesh) that ships batched records between worker
// processes, the control protocol between a coordinator and its workers,
// and the coordinator itself, which owns plan distribution, failure
// detection and the job's checkpoints — triggered and assembled through
// dataflow.Checkpoints, the same coordinator a local run uses.
//
// The execution model is SPMD (see internal/dataflow's participant model):
// operator logic is closures and never crosses the wire. Every process
// rebuilds the identical graph from code; the wire carries only the
// structural plan spec (with a fingerprint both sides verify), the
// placement map, peer addresses, and — on recovery — the restore snapshot.
//
// The data plane does not use gob. Each exchange channel gets its own TCP
// connection, which opens with the channel's reference (four uvarints) and
// then carries a stream of frames: a uvarint byte length, then one []Record
// batch in the hand-rolled wire format (see codec.go). A writer returns each
// batch it has encoded to the job's batch pool and a reader decodes into a
// batch taken from it, so a distributed job recycles its batches as a local
// one does. Gob stays on the control plane and for custom payload values.
// One connection per channel — not per process pair — is deliberate: a
// checkpoint barrier parks its channel until alignment completes, and
// multiplexing a parked channel with live ones over one connection would
// head-of-line-block the live channels' barriers behind the parked one,
// deadlocking alignment. A connection per single-writer single-reader
// channel keeps TCP's in-order delivery exactly congruent with the
// in-process channel ordering that ABS alignment relies on.
//
// # Failure model
//
// Either side of the control plane treats three things as a dead peer: the
// connection dropping (process exit, kill -9 — the OS resets the socket),
// a read deadline expiring with no traffic (hung-but-open TCP: the peer is
// blackholed or wedged; heartbeats ride every HeartbeatInterval so a
// healthy-but-quiet epoch never trips it), and a control write missing its
// deadline (a wedged peer must not block the abort or barrier path). The
// coordinator reacts by failing the epoch; an unsupervised run surfaces that
// as the job error, while a supervised one (see supervisor.go) reloads the
// last completed checkpoint from the backend and runs a fresh epoch —
// respawning its workers in self-spawn mode, or re-placing the dead
// worker's subtasks onto whoever redials within the rejoin window
// (graceful degradation: restore works at any worker count). Restarts are
// spaced by capped exponential backoff with jitter and bounded by a restart
// budget; exhausting the budget surfaces the last epoch's error.
package transport

import (
	"encoding/gob"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/state"
)

// registerOnce guards the built-in registrations; gob.Register panics on
// re-registration only when names collide, but there is no reason to do the
// reflection walk more than once.
var registerOnce sync.Once

// RegisterTypes registers the payload types that cross process boundaries
// inside Record.Value. Gob encodes interface values by concrete-type name,
// so both ends of every connection must register the same set — workers and
// coordinators call this before touching a connection. Builtin payloads
// (int, string, float64, bool, ...) need no registration; the engine's own
// composite payloads (window results, join pairs) are covered here.
// Pipelines whose records carry custom struct payloads pass examples via
// extra (duplicate registrations of the same type are harmless).
func RegisterTypes(extra ...any) {
	registerOnce.Do(func() {
		gob.Register(dataflow.WindowResult{})
		gob.Register(dataflow.JoinedPair{})
	})
	for _, v := range extra {
		gob.Register(v)
	}
}

// ctrlKind discriminates control-plane messages.
type ctrlKind uint8

const (
	// ctrlHello: worker -> coordinator, first message after dialing.
	// Carries the worker's data-plane listen address.
	ctrlHello ctrlKind = iota
	// ctrlPlan: coordinator -> worker. Carries the full plan (see planMsg).
	ctrlPlan
	// ctrlReady: worker -> coordinator. All local subtasks are launched and
	// every inbound channel is registered; safe to start producers.
	ctrlReady
	// ctrlStart: coordinator -> worker, after every participant is ready.
	// Opens the outbound dial gate.
	ctrlStart
	// ctrlTrigger: coordinator -> worker. Inject a checkpoint barrier
	// (Ckpt carries the checkpoint id) at the worker's local sources.
	ctrlTrigger
	// ctrlAck: worker -> coordinator. One local subtask's checkpoint
	// acknowledgement with its state blobs.
	ctrlAck
	// ctrlDone: worker -> coordinator. The worker's share of the job
	// finished (Err empty) or failed (Err set). Sent after the worker
	// flushed and closed its outbound connections.
	ctrlDone
	// ctrlStop: coordinator -> worker. Abort (Err set) or confirm global
	// completion (Err empty). Connection loss doubles as an implicit stop:
	// either side treats a dropped control connection as a failed peer.
	// Under supervision, Rejoin distinguishes "epoch aborted, redial for
	// the next one" from "job over, exit".
	ctrlStop
	// ctrlPing: both directions, periodic heartbeat. Carries nothing; its
	// arrival refreshes the receiver's read deadline. Appended after the
	// original kinds so the wire numbering of a mixed-version loopback
	// deployment stays stable.
	ctrlPing
)

// ctrlMsg is the single control-plane message shape; Kind selects which
// fields are meaningful. One flat struct keeps the gob stream to a single
// registered type.
type ctrlMsg struct {
	Kind   ctrlKind
	Addr   string        // ctrlHello: worker data-plane address
	Plan   *planMsg      // ctrlPlan
	Ckpt   int64         // ctrlTrigger
	Ack    *dataflow.Ack // ctrlAck
	Err    string        // ctrlDone / ctrlStop
	Rejoin bool          // ctrlStop: redial — the supervisor will run another epoch
}

// planMsg is everything a worker needs to execute its share of a job —
// except the operator logic, which it rebuilds from code (SPMD).
type planMsg struct {
	// Self is the receiving worker's participant index (1..Workers).
	Self    int
	Workers int
	// Spec is the coordinator's structural plan; Fingerprint is its
	// digest. The worker refuses to run if its locally built graph
	// fingerprints differently — mismatched binaries or arguments.
	Spec        core.PlanSpec
	Fingerprint string
	// Placement maps (node, subtask) -> participant; identical everywhere.
	Placement dataflow.Placement
	// DataAddrs maps participant index -> data-plane dial address.
	DataAddrs map[int]string
	// Restore, when non-nil, is the recovery snapshot each participant
	// restores its local subtasks from.
	Restore *state.Snapshot
	// Pipeline and Args name the registered pipeline generic workers
	// rebuild. Self-spawned workers rebuild implicitly and ignore them.
	Pipeline string
	Args     []string
	// HeartbeatInterval/HeartbeatTimeout configure the control-plane
	// liveness protocol for this epoch (zero: package defaults). Both
	// sides ping every interval and treat a control stream silent for the
	// timeout as a dead peer.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Supervised tells the worker a failed epoch is not the end of the
	// job: on failure it should report rejoinable errors so its driver
	// loop redials the coordinator for the next epoch.
	Supervised bool
}
