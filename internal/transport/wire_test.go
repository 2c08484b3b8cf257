package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/state"
)

// customPayload stands in for a user-defined record payload registered via
// RegisterTypes' variadic extras.
type customPayload struct {
	Name  string
	Score float64
}

// meshPair connects two meshes over loopback TCP with one channel from a to
// b, as the transport.mesh probe of the benchmark does, and returns the
// channel's two ends. Nothing is sent until the caller starts a.
func meshPair(t *testing.T) (a, b *Mesh, feeder, in chan []dataflow.Record) {
	t.Helper()
	g := dataflow.NewGraph("wire")
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}
	a, b = NewMesh(1, listen(), g, nil), NewMesh(2, listen(), g, nil)
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	a.SetPeers(map[int]string{2: b.Addr()})
	ref := dataflow.ChannelRef{Node: 7, Edge: 1, To: 2, From: 3}
	return a, b, a.Outbound(ref, 2, 16), b.Inbound(ref, 16)
}

// wireSamples holds one record per payload tag and per control record.
func wireSamples() [][]dataflow.Record {
	return [][]dataflow.Record{
		{
			dataflow.Data(100, 3, nil),
			dataflow.Data(101, 4, "hello"),
			dataflow.Data(102, 4, 3.5),
			dataflow.Data(103, 5, int64(-42)),
			dataflow.Data(104, 5, 42),
			dataflow.Data(105, 5, uint64(1)<<63),
			dataflow.Data(106, 5, true),
		},
		{
			dataflow.Data(107, 6, dataflow.WindowResult{QueryID: 2, Start: 100, End: 200, Value: 9.5, Count: 3}),
			dataflow.Data(108, 6, dataflow.JoinedPair{WindowStart: 100, WindowEnd: 200, Left: 1, Right: 2}),
			dataflow.Data(109, 7, customPayload{Name: "x", Score: 0.25}),
		},
		{dataflow.Watermark(150)},
		{dataflow.Barrier(9)},
		{dataflow.End()},
		{dataflow.Data(110, 8, 1.5), {Kind: dataflow.KindFlush}},
	}
}

// TestFrameRoundTrip pushes every payload tag and control record through a
// pair of meshes over loopback TCP — the framing, the socket and the
// demultiplexer — and requires identical batches on the far side, in order.
// The sender ships copies: a shipped batch belongs to the transport, which
// clears it back into the pool.
func TestFrameRoundTrip(t *testing.T) {
	RegisterTypes(customPayload{})
	a, b, feeder, in := meshPair(t)
	a.Start()
	want := wireSamples()
	for _, batch := range want {
		feeder <- slices.Clone(batch)
	}
	for i, w := range want {
		select {
		case got := <-in:
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("batch %d = %+v, want %+v", i, got, w)
			}
		case <-a.Failed():
			t.Fatalf("sender failed: %v", a.Err())
		case <-b.Failed():
			t.Fatalf("receiver failed: %v", b.Err())
		case <-time.After(10 * time.Second):
			t.Fatalf("batch %d never arrived", i)
		}
	}
}

// TestWireDecodeAllocatesWhatArrived: a corrupt record count or frame
// length must cost an error, not memory. A 6-byte batch claiming 2^40
// records once died of a fatal out-of-memory, and 2^24 allocated 640 MB
// before it failed.
func TestWireDecodeAllocatesWhatArrived(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, n := range []uint64{1 << 24, 1 << 40} {
		data := binary.AppendUvarint(nil, n)
		for len(data) < 6 {
			data = append(data, 0)
		}
		var err error
		if b := allocated(func() { _, err = decodeBatch(data, nil) }); b > 64<<10 {
			t.Errorf("a batch claiming %d records allocated %d bytes", n, b)
		}
		if err == nil {
			t.Errorf("a 6-byte batch claiming %d records decoded without error", n)
		}
	}
	var err error
	if b := allocated(func() {
		frame := append(binary.AppendUvarint(nil, maxFrameSize), make([]byte, 100)...)
		_, err = readFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	}); b > 64<<10 {
		t.Errorf("100 bytes of a frame claiming %d allocated %d bytes", maxFrameSize, b)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a frame cut short read as %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestWireBatchControlOnlyLast: a peer's batch with a control record
// anywhere but last is refused, whatever follows the control.
func TestWireBatchControlOnlyLast(t *testing.T) {
	for _, batch := range [][]dataflow.Record{
		{dataflow.Barrier(3), dataflow.Data(1, 2, 1.5)},
		{dataflow.Data(1, 2, 1.5), dataflow.Watermark(9), dataflow.Data(2, 2, 2.5)},
		{dataflow.End(), dataflow.End()},
	} {
		data, err := appendBatch(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := decodeBatch(data, nil); err == nil {
			t.Errorf("batch %v decoded as %v, want an error", batch, b)
		}
	}
}

// FuzzWireBatchDecode: arbitrary bytes decode to an error or a batch, never
// a panic; what decodes is zero or more data records and then at most one
// control record, and re-encodes to bytes that decode to the same batch.
// Batches compare by their encoding, which is exact (float bits included)
// where reflect.DeepEqual is not (NaN).
func FuzzWireBatchDecode(f *testing.F) {
	RegisterTypes(customPayload{})
	for _, batch := range wireSamples() {
		for _, r := range batch {
			data, err := appendBatch(nil, []dataflow.Record{r})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
		data, err := appendBatch(nil, batch)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBatch(data, nil)
		if err != nil {
			return
		}
		for i, r := range b[:max(len(b)-1, 0)] {
			if r.Kind != dataflow.KindData {
				t.Fatalf("decoded batch has %v record %d of %d: %+v", r.Kind, i, len(b), b)
			}
		}
		enc, err := appendBatch(nil, b)
		if err != nil {
			t.Fatalf("decoded batch does not encode: %v", err)
		}
		again, err := decodeBatch(enc, nil)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		enc2, err := appendBatch(nil, again)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(b) || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the batch:\n%+v\n%+v", b, again)
		}
	})
}

// TestControlRoundTrip round-trips the control protocol's richest message —
// a plan carrying a restore snapshot — plus an ack with keyed-state groups.
func TestControlRoundTrip(t *testing.T) {
	snap := state.NewSnapshot(4)
	snap.NumKeyGroups = 16
	snap.Put(state.SubtaskKey{OperatorID: 3, Subtask: 1}, []byte("src-cursor"))
	snap.PutGroup(state.GroupKey{OperatorID: 5, KeyGroup: 9}, []byte("kg9"))

	msgs := []ctrlMsg{
		{Kind: ctrlHello, Addr: "127.0.0.1:4242"},
		{Kind: ctrlPlan, Plan: &planMsg{
			Self: 2, Workers: 3,
			Spec: core.PlanSpec{Name: "wordcount", BatchSize: 64, Nodes: []core.NodeSpec{
				{ID: 1, Name: "src", Parallelism: 2, Source: true},
				{ID: 2, Name: "sink", Parallelism: 1, Pinned: true, In: []core.EdgeSpec{{From: 1, Part: 2}}},
			}},
			Fingerprint: "abc123",
			Placement:   dataflow.Placement{1: {1, 2}, 2: {0}},
			DataAddrs:   map[int]string{0: "127.0.0.1:1", 1: "127.0.0.1:2"},
			Restore:     snap,
			Pipeline:    "wordcount",
			Args:        []string{"-n", "10"},
		}},
		{Kind: ctrlTrigger, Ckpt: 12},
		{Kind: ctrlAck, Ack: &dataflow.Ack{
			Ckpt: 12,
			Key:  state.SubtaskKey{OperatorID: 5, Subtask: 0},
			Blob: []byte("blob"),
			Groups: map[int][]byte{
				3: []byte("g3"),
				7: []byte("g7"),
			},
		}},
		{Kind: ctrlDone, Err: "worker lost"},
	}

	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	dec := gob.NewDecoder(&buf)
	for i, want := range msgs {
		var got ctrlMsg
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode msg %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("msg %d = %+v, want %+v", i, got, want)
		}
	}
}
