package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hcmpi/internal/bufpool"
	"hcmpi/internal/trace"
)

// Distributed transport: real multi-process HCMPI over TCP. Every rank is
// its own OS process; the mesh is a full set of pairwise connections
// established by rank order (rank i accepts from lower ranks and dials
// higher ones), and each connection runs a framed byte protocol:
//
//	frame := tag(int64) length(uint32) payload...
//
// Per-connection FIFO gives the same non-overtaking guarantee as the
// in-process pipe model, and everything above the Comm — collectives,
// RMA, HCMPI's communication worker, DDDFs — works unchanged because it
// is written against the transport-agnostic endpoint.
//
// The transport is asynchronous end to end (DESIGN.md §12):
//
//   - Sends stage the payload in the mesh's size-classed buffer pool and
//     enqueue a frame on the destination's bounded outbound queue; the
//     caller returns immediately. A dedicated writer goroutine per peer
//     coalesces queued frames and flushes once per batch, so the hot
//     path never holds a lock across a socket write.
//   - Receives stage payloads in pooled buffers; the matching layer
//     recycles them after copying, so a steady-state message stream
//     allocates nothing.
//   - Failures are values, not panics: connection errors and missed
//     heartbeats mark the peer failed, fail every queued and posted
//     operation against it with ErrRankFailed, and make future
//     operations against it fail fast. Nothing hangs.

// tcpMaxBatch bounds how many queued frames one writer pass coalesces
// into a single flush.
const tcpMaxBatch = 64

// tcpTagHeartbeat is the wire tag of keepalive frames (registered in
// tags.go). It sits far outside every tag space (user tags are
// [0, maxUserTag), collective tags >= maxUserTag, reserved tags are
// small negatives), and the reader consumes it before the matching
// layer ever sees it.
const tcpTagHeartbeat = TagTCPHeartbeat

// distConfig collects Distributed's settings. Only the tracer and the
// dial timeout have options; the rest are fixed at defaultDistConfig's
// values.
type distConfig struct {
	tracer       *trace.Tracer
	dialTimeout  time.Duration // mesh bring-up bound (dial retries + accept)
	queueCap     int           // per-peer outbound queue, in frames; a full queue blocks the sender
	hbInterval   time.Duration // keepalive period on idle links; 0 disables heartbeats
	hbTimeout    time.Duration // silence after which a peer is declared failed
	drainTimeout time.Duration // graceful-drain bound in Close
}

func defaultDistConfig() distConfig {
	return distConfig{
		dialTimeout:  30 * time.Second,
		queueCap:     256,
		hbInterval:   1 * time.Second,
		hbTimeout:    20 * time.Second,
		drainTimeout: 5 * time.Second,
	}
}

// DistOption configures a Distributed mesh.
type DistOption func(*distConfig)

// WithMeshTracer attaches a trace timeline to the endpoint (send/receive
// posts and matches appear on the rank's MPI track).
func WithMeshTracer(t *trace.Tracer) DistOption { return func(c *distConfig) { c.tracer = t } }

// WithDialTimeout bounds mesh bring-up: the accept window for lower
// ranks and the dial-with-backoff window for higher ones.
func WithDialTimeout(d time.Duration) DistOption { return func(c *distConfig) { c.dialTimeout = d } }

// outFrame is one queued outbound message: a pooled staging payload plus
// the request to complete once the frame is handed to the OS. Heartbeat
// frames carry a nil req.
type outFrame struct {
	tag     int
	payload []byte
	req     *Request
	gen     uint64
}

// tcpPeer is one mesh connection's state.
type tcpPeer struct {
	rank     int
	conn     net.Conn
	wr       *bufio.Writer
	outq     chan outFrame
	down     chan struct{} // closed when the peer is declared failed
	downOnce sync.Once
	failed   atomic.Bool
	lastRecv atomic.Int64 // UnixNano of the last inbound frame
}

type tcpMesh struct {
	rank, size int
	cfg        distConfig
	comm       *Comm
	bufs       *bufpool.Pool
	metrics    *trace.Metrics
	peers      []*tcpPeer // nil at the self index

	closing chan struct{}
	once    sync.Once
	readers sync.WaitGroup
	writers sync.WaitGroup
	aux     sync.WaitGroup

	qhwm atomic.Int64 // sampled outbound queue-depth high-water

	framesSent, bytesSent *trace.Counter
	framesRecv, bytesRecv *trace.Counter
	flushes               *trace.Counter
	queueHWM              *trace.Counter
	redials               *trace.Counter
	peerFailures          *trace.Counter
	heartbeats            *trace.Counter
}

// Distributed connects this process as one rank of a size-rank TCP mesh.
// addrs[i] is the listen address of rank i (host:port); every process
// must be started with the same address list. The call blocks until the
// full mesh is up (bounded by WithDialTimeout) and returns a ready Comm.
//
// Close the returned io.Closer after the program's final communication
// (typically after a Barrier) to tear the mesh down; Close drains the
// outbound queues before closing connections. No operations may be
// issued after Close.
func Distributed(rank int, addrs []string, opts ...DistOption) (*Comm, io.Closer, error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, nil, fmt.Errorf("mpi: rank %d outside addrs (%d)", rank, size)
	}
	cfg := defaultDistConfig()
	for _, o := range opts {
		o(&cfg)
	}

	m := &tcpMesh{
		rank: rank, size: size, cfg: cfg,
		bufs:    bufpool.New(),
		metrics: trace.NewMetrics(),
		peers:   make([]*tcpPeer, size),
		closing: make(chan struct{}),
	}
	m.bufs.SetMetrics(m.metrics)
	m.framesSent = m.metrics.Counter("comm_tcp_frames_sent")
	m.bytesSent = m.metrics.Counter("comm_tcp_bytes_sent")
	m.framesRecv = m.metrics.Counter("comm_tcp_frames_recv")
	m.bytesRecv = m.metrics.Counter("comm_tcp_bytes_recv")
	m.flushes = m.metrics.Counter("comm_tcp_flush_batches")
	m.queueHWM = m.metrics.Counter("comm_tcp_queue_hwm")
	m.redials = m.metrics.Counter("comm_tcp_redials")
	m.peerFailures = m.metrics.Counter("comm_tcp_peer_failures")
	m.heartbeats = m.metrics.Counter("comm_tcp_heartbeats")

	conns, err := m.connect(addrs)
	if err != nil {
		return nil, nil, err
	}

	c := &Comm{rank: rank, size: size, node: rank}
	c.metrics = m.metrics
	c.reqHit = m.metrics.Counter("mpi_req_pool_hit")
	c.reqMiss = m.metrics.Counter("mpi_req_pool_miss")
	c.bufs = m.bufs
	c.ring = cfg.tracer.Register(rank, trace.MPITid, "mpi", trace.TrackMPI)
	c.sendHook = m.send
	c.failedFn = m.peerFailed
	m.comm = c

	now := time.Now().UnixNano()
	for peer, conn := range conns {
		if peer == rank {
			continue
		}
		p := &tcpPeer{
			rank: peer,
			conn: conn,
			wr:   bufio.NewWriterSize(conn, 1<<16),
			outq: make(chan outFrame, cfg.queueCap),
			down: make(chan struct{}),
		}
		p.lastRecv.Store(now)
		m.peers[peer] = p
		m.readers.Add(1)
		go m.reader(p)
		m.writers.Add(1)
		go m.writer(p)
	}
	if cfg.hbInterval > 0 {
		m.aux.Add(1)
		go m.heartbeatLoop()
	}
	return c, m, nil
}

// connect establishes the full mesh: accept one connection from every
// lower rank, dial every higher rank (with bounded exponential backoff
// while peers boot), and exchange rank hellos.
func (m *tcpMesh) connect(addrs []string) ([]net.Conn, error) {
	rank, size := m.rank, m.size
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d listen: %w", rank, err)
	}
	defer ln.Close()
	if tl, ok := ln.(*net.TCPListener); ok {
		// Bound the accept side of bring-up: a peer that never shows up
		// surfaces as an error, not a hang.
		tl.SetDeadline(time.Now().Add(m.cfg.dialTimeout))
	}

	conns := make([]net.Conn, size)
	acceptErr := make(chan error, 1)
	go func() {
		for i := 0; i < rank; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			var hello [8]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				acceptErr <- err
				return
			}
			peer := int(binary.LittleEndian.Uint64(hello[:]))
			if peer < 0 || peer >= size || peer == rank || conns[peer] != nil {
				acceptErr <- fmt.Errorf("bad hello rank %d", peer)
				return
			}
			conns[peer] = conn
		}
		acceptErr <- nil
	}()

	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	for peer := rank + 1; peer < size; peer++ {
		var conn net.Conn
		deadline := time.Now().Add(m.cfg.dialTimeout)
		backoff := 10 * time.Millisecond
		for {
			conn, err = net.Dial("tcp", addrs[peer])
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				closeAll()
				return nil, fmt.Errorf("mpi: rank %d dial %d: %w", rank, peer, err)
			}
			m.redials.Inc()
			time.Sleep(backoff)
			if backoff *= 2; backoff > 250*time.Millisecond {
				backoff = 250 * time.Millisecond
			}
		}
		var hello [8]byte
		binary.LittleEndian.PutUint64(hello[:], uint64(rank))
		if _, err := conn.Write(hello[:]); err != nil {
			conn.Close()
			closeAll()
			return nil, fmt.Errorf("mpi: rank %d hello to %d: %w", rank, peer, err)
		}
		conns[peer] = conn
	}
	if err := <-acceptErr; err != nil {
		closeAll()
		return nil, fmt.Errorf("mpi: rank %d accept: %w", rank, err)
	}
	return conns, nil
}

// send is the Comm's sendHook: stage a copy of buf in the pool (an owned
// buf is a pool buffer already and is taken as is) and either deliver
// it locally (loopback) or enqueue it on the peer's outbound queue. It
// returns as soon as the frame is queued; the writer's post-flush
// callback completes the request ("handed to the OS", the closest
// observable analogue of MPI's eager-send completion).
func (m *tcpMesh) send(req *Request, buf []byte, dest, tag int, owned bool) {
	gen := req.gen.Load()
	n := len(buf)
	// Otherwise always stage a copy, loopback included: the caller may
	// reuse buf the moment Isend returns, exactly as on the netsim
	// transport.
	payload := buf
	if !owned {
		payload = m.bufs.Get(n)
		copy(payload, buf)
	}
	if dest == m.rank {
		m.comm.deliver(inMsg{src: m.rank, tag: tag, payload: payload, pooled: true})
		req.completeGen(gen, Status{Source: m.rank, Tag: tag, Bytes: n})
		return
	}
	p := m.peers[dest]
	f := outFrame{tag: tag, payload: payload, req: req, gen: gen}
	select {
	case p.outq <- f:
	default:
		// Queue full: block (bounded-queue backpressure), but never past a
		// peer failure or mesh teardown.
		select {
		case p.outq <- f:
		case <-p.down:
			m.failFrame(&f)
		case <-m.closing:
			m.failFrame(&f)
		}
	}
}

// failFrame reclaims a frame that will never reach the wire and fails
// its request with ErrRankFailed.
func (m *tcpMesh) failFrame(f *outFrame) {
	m.bufs.Put(f.payload)
	if f.req != nil {
		f.req.completeGen(f.gen, Status{Source: m.rank, Tag: f.tag, Err: ErrRankFailed})
	}
}

// peerFailed is the Comm's failure detector hook.
func (m *tcpMesh) peerFailed(r int) bool {
	p := m.peers[r]
	return p != nil && p.failed.Load()
}

// markPeerFailed transitions a peer to failed exactly once: its
// connection is closed, every receive posted against it completes with
// ErrRankFailed, queued and future sends to it fail fast, and the
// writer's drain loop fails anything still in (or racing into) the
// outbound queue.
func (m *tcpMesh) markPeerFailed(p *tcpPeer) {
	p.downOnce.Do(func() {
		p.failed.Store(true)
		close(p.down)
		p.conn.Close()
		m.peerFailures.Inc()
		m.comm.failPeer(p.rank)
	})
}

// peerGone classifies a connection error: during orderly teardown it is
// expected; otherwise the peer has failed.
func (m *tcpMesh) peerGone(p *tcpPeer) {
	select {
	case <-m.closing:
	default:
		m.markPeerFailed(p)
	}
}

// reader is the per-connection receive loop: read a frame, stage its
// payload in a pooled buffer, and hand it to the matching layer (which
// recycles the buffer after copying). Heartbeats are consumed here.
func (m *tcpMesh) reader(p *tcpPeer) {
	defer m.readers.Done()
	r := bufio.NewReaderSize(p.conn, 1<<16)
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			m.peerGone(p)
			return
		}
		tag64 := int64(binary.LittleEndian.Uint64(hdr[:8]))
		n := int(binary.LittleEndian.Uint32(hdr[8:]))
		p.lastRecv.Store(time.Now().UnixNano())
		if tag64 == tcpTagHeartbeat {
			continue // keepalives carry no payload
		}
		payload := m.bufs.Get(n)
		if _, err := io.ReadFull(r, payload); err != nil {
			m.bufs.Put(payload)
			m.peerGone(p)
			return
		}
		m.framesRecv.Inc()
		m.bytesRecv.Add(int64(n))
		m.comm.deliver(inMsg{src: p.rank, tag: int(tag64), payload: payload, pooled: true})
	}
}

// takeBatch drains up to tcpMaxBatch frames from the queue without
// blocking, appending to batch.
func takeBatch(p *tcpPeer, batch []outFrame) []outFrame {
	for len(batch) < tcpMaxBatch {
		select {
		case f := <-p.outq:
			batch = append(batch, f)
		default:
			return batch
		}
	}
	return batch
}

// writer is the per-peer asynchronous send loop: block for one frame,
// coalesce whatever else is queued, write the batch, and flush once.
// This is what keeps socket writes (and their latency) off the sender's
// hot path. Apart from the head-of-loop park below it must stay
// non-blocking: completions it publishes feed the communication worker.
//
//hclint:nonblocking
func (m *tcpMesh) writer(p *tcpPeer) {
	defer m.writers.Done()
	batch := make([]outFrame, 0, tcpMaxBatch)
	for {
		var f outFrame
		select { //hclint:allow head-of-loop park: the writer sleeps here until a frame, peer death, or shutdown wakes it
		case f = <-p.outq:
		case <-p.down:
			m.failPending(p)
			return
		case <-m.closing:
			// Graceful drain: flush everything already queued, then exit.
			for {
				batch = takeBatch(p, batch[:0])
				if len(batch) == 0 {
					return
				}
				if !m.writeBatch(p, batch) {
					m.failBatch(batch)
					m.failPending(p)
					return
				}
			}
		}
		m.noteDepth(int64(len(p.outq)) + 1)
		batch = takeBatch(p, append(batch[:0], f))
		if !m.writeBatch(p, batch) {
			m.failBatch(batch)
			m.failPending(p)
			return
		}
	}
}

// writeBatch writes every frame, flushes once, then recycles payloads
// and completes requests. On error the peer is marked failed and the
// caller owns failing the batch.
func (m *tcpMesh) writeBatch(p *tcpPeer, batch []outFrame) bool {
	var hdr [12]byte
	for i := range batch {
		f := &batch[i]
		binary.LittleEndian.PutUint64(hdr[:8], uint64(int64(f.tag)))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(f.payload)))
		if _, err := p.wr.Write(hdr[:]); err != nil {
			m.peerGone(p)
			return false
		}
		if _, err := p.wr.Write(f.payload); err != nil {
			m.peerGone(p)
			return false
		}
	}
	if err := p.wr.Flush(); err != nil {
		m.peerGone(p)
		return false
	}
	// Counters first, completions second: a waiter released by
	// completeGen must already observe its frame in the counters.
	m.flushes.Inc()
	var nb int64
	for i := range batch {
		nb += int64(len(batch[i].payload))
	}
	m.framesSent.Add(int64(len(batch)))
	m.bytesSent.Add(nb)
	for i := range batch {
		f := &batch[i]
		m.bufs.Put(f.payload)
		if f.req != nil {
			f.req.completeGen(f.gen, Status{Source: m.rank, Tag: f.tag, Bytes: len(f.payload)})
		} else {
			m.heartbeats.Inc()
		}
	}
	return true
}

// failBatch fails every frame of an unflushed batch. A bufio buffer
// boundary may already have pushed early frames onto the wire; failing
// them all matches ULFM's contract that operations in flight to a failed
// process have indeterminate delivery but determinate (failed) local
// completion.
func (m *tcpMesh) failBatch(batch []outFrame) {
	for i := range batch {
		m.failFrame(&batch[i])
	}
}

// failPending keeps draining a failed peer's queue — frames may race in
// behind the failure flag — until the mesh itself closes.
func (m *tcpMesh) failPending(p *tcpPeer) {
	for {
		select { //hclint:allow the peer is dead: the writer's only remaining job is to pump this drain until Close
		case f := <-p.outq:
			m.failFrame(&f)
		case <-m.closing:
			for {
				select {
				case f := <-p.outq:
					m.failFrame(&f)
				default:
					return
				}
			}
		}
	}
}

// noteDepth folds a sampled queue depth into the mesh-wide high-water
// counter (the counter's value IS the maximum: only positive deltas up
// to the new max are ever added).
func (m *tcpMesh) noteDepth(d int64) {
	for {
		cur := m.qhwm.Load()
		if d <= cur {
			return
		}
		if m.qhwm.CompareAndSwap(cur, d) {
			m.queueHWM.Add(d - cur)
			return
		}
	}
}

// heartbeatLoop is the failure detector: every interval it sends
// keepalive frames (non-blocking — a backed-up queue already proves
// liveness through backpressure) and declares peers silent for longer
// than the timeout failed.
func (m *tcpMesh) heartbeatLoop() {
	defer m.aux.Done()
	t := time.NewTicker(m.cfg.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-m.closing:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		for _, p := range m.peers {
			if p == nil || p.failed.Load() {
				continue
			}
			if m.cfg.hbTimeout > 0 && now-p.lastRecv.Load() > int64(m.cfg.hbTimeout) {
				m.markPeerFailed(p)
				continue
			}
			select {
			case p.outq <- outFrame{tag: tcpTagHeartbeat}:
			default:
			}
		}
	}
}

// Metrics exposes the mesh's counter registry (comm_tcp_* transport
// counters, request- and buffer-pool hit rates).
func (m *tcpMesh) Metrics() *trace.Metrics { return m.metrics }

// Close tears the mesh down: writers drain their queues (bounded by the
// drain timeout), connections close, readers exit. Idempotent.
func (m *tcpMesh) Close() error {
	m.once.Do(func() {
		close(m.closing)
		drained := make(chan struct{})
		go func() {
			m.writers.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(m.cfg.drainTimeout):
		}
		// Force-close connections: unblocks any writer stuck on a dead
		// peer's socket and sends readers their EOF.
		for _, p := range m.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		m.writers.Wait()
		m.readers.Wait()
		m.aux.Wait()
	})
	return nil
}
