package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/metrics"
)

// Mesh is the TCP dataflow.EdgeTransport of one participant. It owns one
// listening socket for inbound channels and dials one connection per
// outbound channel (see the package comment for why conn-per-channel).
//
// Lifecycle: NewMesh (listener must already be bound, so the address can
// travel in the hello message before the graph exists) -> SetPeers (from
// the plan) -> exec registers Inbound/Outbound channels -> Start (opens the
// dial gate once every participant is ready, which guarantees all inbound
// registrations exist before the first frame arrives) -> DrainOutbound
// (after local subtasks finish: flush and close outbound connections) ->
// Close (tear down everything; also the abort path).
type Mesh struct {
	self  int
	ln    net.Listener
	reg   *metrics.Registry
	names map[int]string // node ID -> name, for metric labels

	ctx    context.Context
	cancel context.CancelFunc

	started chan struct{} // closed by Start: writers may dial
	failed  chan struct{} // closed by fail: transport is broken

	mu      sync.Mutex
	pool    *dataflow.BatchPool
	peers   map[int]string
	inbound map[dataflow.ChannelRef]chan []dataflow.Record
	feeders []chan []dataflow.Record
	conns   map[net.Conn]struct{}
	failErr error

	writers sync.WaitGroup
	readers sync.WaitGroup
}

// NewMesh wraps an already-bound data-plane listener. The graph supplies
// node names for per-edge metric labels; reg may be nil to disable metrics.
// The mesh starts with a batch pool of its own, which a job replaces with
// the job's (UsePool).
func NewMesh(self int, ln net.Listener, g *dataflow.Graph, reg *metrics.Registry) *Mesh {
	names := make(map[int]string)
	for _, n := range g.Nodes() {
		names[n.ID] = n.Name
	}
	m := &Mesh{
		self:    self,
		ln:      ln,
		reg:     reg,
		names:   names,
		pool:    dataflow.NewBatchPool(dataflow.DefaultBatchSize),
		started: make(chan struct{}),
		failed:  make(chan struct{}),
		inbound: make(map[dataflow.ChannelRef]chan []dataflow.Record),
		conns:   make(map[net.Conn]struct{}),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.readers.Add(1)
	go m.acceptLoop()
	return m
}

// Addr returns the data-plane dial address peers use to reach this mesh.
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

// SetPeers installs the participant -> data-address map from the plan.
// Must precede Start.
func (m *Mesh) SetPeers(addrs map[int]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.peers = addrs
}

// Start opens the dial gate: outbound writers block before it, so no frame
// is sent until the coordinator has confirmed every participant registered
// its inbound channels. Kills the registration race by construction.
func (m *Mesh) Start() { close(m.started) }

// Failed is closed on the first transport error (peer connection drop,
// encode/decode failure). The driver cancels the local job in response.
func (m *Mesh) Failed() <-chan struct{} { return m.failed }

// Err returns the first transport error, or nil.
func (m *Mesh) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failErr
}

func (m *Mesh) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failErr == nil {
		m.failErr = err
		close(m.failed)
	}
}

// benign reports whether a read/accept error is part of ordinary teardown
// rather than a peer failure: clean EOF (peer drained and closed), our own
// Close, or an abort already in progress.
func (m *Mesh) benign(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || m.ctx.Err() != nil
}

func (m *Mesh) track(conn net.Conn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.conns[conn] = struct{}{}
}

// UsePool implements dataflow.EdgeTransport: readers decode received
// batches into batches from p, and writers return shipped batches to it.
func (m *Mesh) UsePool(p *dataflow.BatchPool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pool = p
}

// Inbound implements dataflow.EdgeTransport: it registers and returns the
// channel the demultiplexer will deliver ref's frames into.
func (m *Mesh) Inbound(ref dataflow.ChannelRef, buf int) chan []dataflow.Record {
	ch := make(chan []dataflow.Record, buf)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inbound[ref] = ch
	return ch
}

func (m *Mesh) inboundFor(ref dataflow.ChannelRef) (chan []dataflow.Record, *dataflow.BatchPool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inbound[ref], m.pool
}

// Outbound implements dataflow.EdgeTransport: it returns the feeder channel
// a local producer ships ref's batches into, and spawns the writer goroutine
// that owns ref's TCP connection to participant to. The writer returns each
// batch to the pool once it has encoded it.
func (m *Mesh) Outbound(ref dataflow.ChannelRef, to, buf int) chan []dataflow.Record {
	feeder := make(chan []dataflow.Record, buf)
	var tx *metrics.Counter
	if m.reg != nil {
		tx = m.reg.Counter(fmt.Sprintf("edge.%s.%d.tx_bytes", m.names[ref.Node], ref.Edge))
	}
	m.mu.Lock()
	m.feeders = append(m.feeders, feeder)
	m.mu.Unlock()
	m.writers.Add(1)
	go m.writeLoop(ref, to, feeder, tx)
	return feeder
}

func (m *Mesh) writeLoop(ref dataflow.ChannelRef, to int, feeder chan []dataflow.Record, tx *metrics.Counter) {
	defer m.writers.Done()
	select {
	case <-m.started:
	case <-m.ctx.Done():
		return
	}
	m.mu.Lock()
	addr, ok := m.peers[to]
	pool := m.pool
	m.mu.Unlock()
	if !ok {
		m.fail(fmt.Errorf("transport: no address for participant %d", to))
		m.discard(feeder)
		return
	}
	// Every peer's data listener is bound before its address travels in the
	// plan, so retries only cover transient refusals (SYN backlog overflow
	// under a thundering-herd epoch start); the budget stays short.
	conn, err := DialRetry(m.ctx, addr, DialPolicy{MaxWait: 2 * time.Second})
	if err != nil {
		m.fail(fmt.Errorf("transport: dial participant %d: %w", to, err))
		m.discard(feeder)
		return
	}
	m.track(conn)
	bw := bufio.NewWriterSize(&countWriter{c: tx, w: conn}, 64<<10)
	// A write error sticks in bw and surfaces at the first frame or flush.
	_, _ = bw.Write(appendRef(nil, ref))
	var buf []byte
	for {
		select {
		case b, open := <-feeder:
			if !open {
				// Drained: flush the tail and close, delivering EOF as the
				// peer's end-of-connection signal (the End record inside the
				// last frame is the dataflow-level end-of-stream).
				if err := bw.Flush(); err != nil && !m.benign(err) {
					m.fail(fmt.Errorf("transport: flush to participant %d: %w", to, err))
				}
				conn.Close()
				return
			}
			var err error
			buf, err = appendBatch(buf[:0], b)
			pool.Put(b)
			if err == nil {
				err = writeFrame(bw, buf)
			}
			if err != nil {
				m.fail(fmt.Errorf("transport: send to participant %d: %w", to, err))
				m.discard(feeder)
				return
			}
			// Flush on idle: amortize syscalls while the feeder is hot, but
			// never hold a batch once there is nothing behind it (control
			// records — watermarks, barriers, ends — must not sit in a
			// buffer while the peer waits on them).
			if len(feeder) == 0 {
				if err := bw.Flush(); err != nil {
					if !m.benign(err) {
						m.fail(fmt.Errorf("transport: flush to participant %d: %w", to, err))
					}
					m.discard(feeder)
					return
				}
			}
		case <-m.ctx.Done():
			return
		}
	}
}

// discard keeps consuming a feeder after a transport failure so producers
// blocked on it unwind (they also select on the job context, which the
// driver cancels when Failed closes — this is belt and suspenders for the
// window between failure and cancellation).
func (m *Mesh) discard(feeder chan []dataflow.Record) {
	for {
		select {
		case _, open := <-feeder:
			if !open {
				return
			}
		case <-m.ctx.Done():
			return
		}
	}
}

func (m *Mesh) acceptLoop() {
	defer m.readers.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			if !m.benign(err) {
				m.fail(fmt.Errorf("transport: accept: %w", err))
			}
			return
		}
		m.track(conn)
		m.readers.Add(1)
		go m.readLoop(conn)
	}
}

func (m *Mesh) readLoop(conn net.Conn) {
	defer m.readers.Done()
	br := bufio.NewReaderSize(conn, 64<<10)
	ref, err := readRef(br)
	if err != nil {
		if !m.benign(err) {
			m.fail(fmt.Errorf("transport: recv channel header: %w", err))
		}
		return
	}
	ch, pool := m.inboundFor(ref)
	if ch == nil {
		m.fail(fmt.Errorf("transport: connection for unregistered channel %+v", ref))
		return
	}
	var buf []byte
	for {
		var b []dataflow.Record
		buf, err = readFrame(br, buf)
		if err == nil {
			b, err = decodeBatch(buf, pool.Get())
		}
		if err != nil {
			if !m.benign(err) {
				m.fail(fmt.Errorf("transport: recv: %w", err))
			}
			return
		}
		select {
		case ch <- b:
		case <-m.ctx.Done():
			return
		}
	}
}

// DrainOutbound closes every feeder and waits for the writers to flush and
// close their connections. Call exactly once, after all local producer
// subtasks have finished (the success path); the remote Ends are then on
// the wire before the worker reports done.
func (m *Mesh) DrainOutbound() {
	m.mu.Lock()
	feeders := m.feeders
	m.feeders = nil
	m.mu.Unlock()
	for _, f := range feeders {
		close(f)
	}
	m.writers.Wait()
}

// Close tears the mesh down: cancels every loop, closes the listener and
// all connections, and waits for the goroutines to exit. Safe after
// DrainOutbound and as the abort path without it.
func (m *Mesh) Close() {
	m.cancel()
	m.ln.Close()
	m.mu.Lock()
	conns := make([]net.Conn, 0, len(m.conns))
	for c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	m.writers.Wait()
	m.readers.Wait()
}

// countWriter counts bytes flowing to the connection (post-buffer, so the
// count reflects actual wire traffic). c may be nil.
type countWriter struct {
	c *metrics.Counter
	w io.Writer
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if cw.c != nil && n > 0 {
		cw.c.Add(int64(n))
	}
	return n, err
}
