package transport

import (
	"context"
	"net"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflow"
)

// poolSpy is a Mesh that keeps the batch pool its job hands over.
type poolSpy struct {
	*Mesh
	pool *dataflow.BatchPool
}

func (s *poolSpy) UsePool(p *dataflow.BatchPool) {
	s.pool = p
	s.Mesh.UsePool(p)
}

// raceDetector reports whether the test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestMeshPoolBalance moves a million records from the sources of one
// participant to the sinks of another over real meshes and requires each
// job's batch pool to stay balanced: the sender's writers return what they
// ship, the receiver's readers decode into batches the consumer returns.
// The batches either pool allocates are then bounded by what is in flight,
// not by the record count. A writer that drops shipped batches makes the
// sender's pool allocate one per batch (about 30 000 here); a reader with a
// side pool of its own grows the receiver's heap without bound instead.
func TestMeshPoolBalance(t *testing.T) {
	if raceDetector() {
		t.Skip("sync.Pool drops a random share of its Puts under the race detector")
	}
	const perSubtask, maxAllocated = 500_000, 1024
	var got atomic.Int64
	build := func() *dataflow.Graph {
		g := dataflow.NewGraph("balance")
		src := g.AddSource("gen", 2, func(int, int) dataflow.SourceFunc {
			return &dataflow.GenSource{N: perSubtask, Gen: func(i int64) dataflow.Record {
				return dataflow.Data(i, uint64(i), nil)
			}}
		})
		g.AddOperator("count", 2, func() dataflow.Operator {
			return &dataflow.FuncSink{F: func(dataflow.Record) { got.Add(1) }}
		}, dataflow.Edge{From: src, Part: dataflow.HashPartition})
		return g
	}
	// Every source subtask on participant 0, every sink subtask on 1: each
	// batch crosses the wire.
	placement := dataflow.Placement{0: {0, 0}, 1: {1, 1}}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spies := make([]*poolSpy, 2)
	graphs := make([]*dataflow.Graph, 2)
	for i := range spies {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = build()
		spies[i] = &poolSpy{Mesh: NewMesh(i, ln, graphs[i], nil)}
		defer spies[i].Close()
	}
	spies[0].SetPeers(map[int]string{1: spies[1].Addr()})
	spies[1].SetPeers(map[int]string{0: spies[0].Addr()})

	running := make(chan struct{}, 2)
	errs := make(chan error, 2)
	for i, spy := range spies {
		go func() {
			err := dataflow.NewJob(graphs[i], dataflow.WithChaining(true)).RunParticipant(ctx, &dataflow.Participation{
				Self:      i,
				Placement: placement,
				Transport: spy,
				OnRunning: func() { running <- struct{}{} },
			})
			if err == nil {
				spy.DrainOutbound()
			}
			errs <- err
		}()
	}
	for range spies {
		<-running
	}
	for _, spy := range spies {
		spy.Start()
	}
	for range spies {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-spies[0].Failed():
			t.Fatal(spies[0].Err())
		case <-spies[1].Failed():
			t.Fatal(spies[1].Err())
		}
	}
	if n := got.Load(); n != 2*perSubtask {
		t.Fatalf("sinks counted %d records, want %d", n, 2*perSubtask)
	}
	for i, spy := range spies {
		n := spy.pool.Allocated()
		t.Logf("participant %d: pool allocated %d batches", i, n)
		if n > maxAllocated {
			t.Errorf("participant %d's pool allocated %d batches for %d records, want <= %d", i, n, 2*perSubtask, maxAllocated)
		}
	}
}
