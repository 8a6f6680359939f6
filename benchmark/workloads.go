package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hcmpi/internal/dddf"
	"hcmpi/internal/hc"
	node "hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
	"hcmpi/internal/sw"
	"hcmpi/internal/uts"
)

// A workload is one closed loop over the real runtime. All ranks live in
// this process; every rank has one computation worker plus its
// communication worker. Windows do a fixed op count, frozen below at
// about one second per window on the reference machine (2 cores).
type workload struct {
	name     string
	tailPct  float64 // percentile reported as op_tail_us
	ops      int     // timed ops per window
	warm     int     // warm-up ops per window (part of set-up)
	quickOps int     // -quick sizing, for the smoke test
	window   func(in *inputs, ops, warm int, tr *tracer) *window
}

var workloads = []*workload{
	{name: "pingpong_8b", tailPct: 95, ops: 30000, warm: 3000, quickOps: 600, window: pingpongWindow},
	{name: "msgflood_8b", tailPct: 95, ops: 307200, warm: 30720, quickOps: 5120, window: msgfloodWindow},
	{name: "tcp_stream_64k", tailPct: 99, ops: 16384, warm: 2048, quickOps: 512, window: tcpStreamWindow},
	{name: "dddf_fetch_1k", tailPct: 99, ops: 16384, warm: 2048, quickOps: 512, window: dddfFetchWindow},
	{name: "allreduce_4r", tailPct: 95, ops: 16000, warm: 1600, quickOps: 400, window: allreduceWindow},
	{name: "uts_t3mid", tailPct: 90, ops: 8, warm: 1, quickOps: 2, window: utsWindow},
	{name: "sw_dddf", tailPct: 90, ops: 8, warm: 1, quickOps: 2, window: swWindow},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) opsFor(quick bool) int {
	if quick {
		return w.quickOps
	}
	return w.ops
}

func (w *workload) warmFor(quick bool) int {
	if quick {
		return max(w.warm*w.quickOps/w.ops, 1)
	}
	return w.warm
}

// window is the outcome of one set-up + warm-up + timed window. It is
// also the child's per-window event, so a window survives its process.
type window struct {
	Traced  bool    `json:"traced"`
	Ops     int     `json:"ops"`
	Failed  int     `json:"failed"`
	WallNS  int64   `json:"wall_ns"`
	CPUNS   int64   `json:"cpu_ns"`
	SetupNS int64   `json:"setup_ns"`
	PeakRSS int64   `json:"peak_rss_kb"` // resident-set high-water mark over the window, set by measure
	Lat     []int64 `json:"lat_ns"`      // ascending, decimated to maxLatPerWindow

	counters counters // counter deltas over the timed part
}

// maxLatPerWindow keeps window events small: the parent parses them while
// the child is already timing its next window.
const maxLatPerWindow = 5000

// --- measuring the timed part of a window ---

// meter measures wall and CPU time of the timed part and, on the traced
// pass, what the Go runtime did meanwhile.
type meter struct {
	t0     time.Time
	cpu0   int64
	traced bool
	ms0    runtime.MemStats
	stop   chan struct{}
	peak   chan int
}

func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func startMeter(traced bool) *meter {
	m := &meter{traced: traced}
	if traced {
		m.stop, m.peak = make(chan struct{}), make(chan int, 1)
		go func() {
			peak := runtime.NumGoroutine()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					peak = max(peak, runtime.NumGoroutine())
				case <-m.stop:
					m.peak <- peak
					return
				}
			}
		}()
		runtime.ReadMemStats(&m.ms0)
	}
	m.cpu0, m.t0 = cpuNS(), time.Now()
	return m
}

// finish stores the measurements in win (runtime deltas in its counters).
func (m *meter) finish(win *window) {
	c := win.counters
	win.WallNS, win.CPUNS = int64(time.Since(m.t0)), cpuNS()-m.cpu0
	if !m.traced {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	close(m.stop)
	c["rt_mallocs"] = int64(ms.Mallocs - m.ms0.Mallocs)
	c["rt_alloc_bytes"] = int64(ms.TotalAlloc - m.ms0.TotalAlloc)
	c["rt_gc_cycles"] = int64(ms.NumGC - m.ms0.NumGC)
	c["rt_gc_pause_ns"] = int64(ms.PauseTotalNs - m.ms0.PauseTotalNs)
	c["rt_goroutines_hwm"] = int64(<-m.peak)
}

// --- counters the program already exposes ---

// counters holds named counter values: deltas over a timed part, or sums
// of them. A name ending in _hwm is a high-water mark and keeps its
// maximum where the others add up.
type counters map[string]int64

func (c counters) add(name string, v int64) {
	if strings.HasSuffix(name, "_hwm") {
		c[name] = max(c[name], v)
	} else {
		c[name] += v
	}
}

func (c counters) merge(o counters) {
	for name, v := range o {
		c.add(name, v)
	}
}

// since turns totals into deltas over the part that began at before.
func (c counters) since(before counters) counters {
	for name, v := range before {
		if !strings.HasSuffix(name, "_hwm") {
			c[name] -= v
		}
	}
	return c
}

// addNode adds one node's registry (hc_*, comm_*, dist_*).
func (c counters) addNode(n *node.Node) {
	for _, mv := range n.Metrics().Snapshot() {
		c.add(mv.Name, mv.Value)
	}
}

// addComm adds an endpoint registry (mpi_req_pool_*, buf_pool_*,
// comm_tcp_*).
func (c counters) addComm(cm *mpi.Comm) {
	for _, mv := range cm.Metrics().Snapshot() {
		c.add(mv.Name, mv.Value)
	}
}

func (c counters) addWorld(w *mpi.World) {
	c.addComm(w.Comm(0)) // netsim ranks share the world's registry
	st := w.Net().Stats()
	c.add("netsim_msgs", st.Messages)
	c.add("netsim_bytes", st.Bytes)
}

func (c counters) addSpace(s *dddf.Space) {
	reg, data := s.Stats()
	c.add("dddf_registers", reg)
	c.add("dddf_data", data)
}

// --- session: the nodes a micro-op workload runs on ---

type session struct {
	world   *mpi.World // nil over TCP
	comms   []*mpi.Comm
	closers []io.Closer
	nodes   []*node.Node
	spaces  []*dddf.Space
}

func nodeConfig() node.Config { return node.Config{Workers: 1, OpTimeout: opTimeout} }

// eachRank runs f once per rank, concurrently, and waits (the SPMD model).
func eachRank(ranks int, f func(r int)) {
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f(r)
		}(r)
	}
	wg.Wait()
}

// freeAddrs reserves n distinct free 127.0.0.1 listen addresses.
func freeAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("no free loopback port: %v", err))
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs
}

// tcpMesh brings up a same-process loopback mesh.
func tcpMesh(ranks int) ([]*mpi.Comm, []io.Closer) {
	addrs := freeAddrs(ranks)
	comms, closers := make([]*mpi.Comm, ranks), make([]io.Closer, ranks)
	eachRank(ranks, func(r int) {
		c, cl, err := mpi.Distributed(r, addrs, mpi.WithDialTimeout(10*time.Second))
		if err != nil {
			panic(fmt.Sprintf("tcp mesh rank %d: %v", r, err))
		}
		comms[r], closers[r] = c, cl
	})
	return comms, closers
}

func openSession(ranks int, tcp bool, home dddf.HomeFunc, sb *spanBuf) *session {
	s := &session{nodes: make([]*node.Node, ranks)}
	if tcp {
		x := sb.begin(rootID, 0, "mpi.Distributed")
		s.comms, s.closers = tcpMesh(ranks)
		sb.end(x)
	} else {
		x := sb.begin(rootID, 0, "mpi.NewWorld")
		s.world = mpi.NewWorld(ranks)
		sb.end(x)
		for r := 0; r < ranks; r++ {
			s.comms = append(s.comms, s.world.Comm(r))
		}
	}
	for r := range s.nodes {
		x := sb.begin(rootID, 0, "hcmpi.NewNode")
		s.nodes[r] = node.NewNode(s.comms[r], nodeConfig())
		sb.end(x)
	}
	if home != nil {
		for _, n := range s.nodes {
			x := sb.begin(rootID, 0, "dddf.NewSpace")
			s.spaces = append(s.spaces, dddf.NewSpace(n, home, nil))
			sb.end(x)
		}
	}
	return s
}

type rankBody func(r int, n *node.Node, ctx *hc.Ctx)

// run executes body as every rank's main task and waits for all of them.
func (s *session) run(body rankBody) {
	if body == nil {
		return
	}
	eachRank(len(s.nodes), func(r int) {
		s.nodes[r].Main(func(ctx *hc.Ctx) { body(r, s.nodes[r], ctx) })
	})
}

func (s *session) close(sb *spanBuf) {
	x := sb.begin(rootID, 0, "hcmpi.Close")
	eachRank(len(s.nodes), func(r int) { s.nodes[r].Close() })
	sb.end(x)
	for _, cl := range s.closers {
		_ = cl.Close() // tcpMesh.Close always returns nil
	}
	if s.world != nil {
		s.world.Close()
	}
}

func (s *session) counters() counters {
	c := counters{}
	for _, n := range s.nodes {
		c.addNode(n)
	}
	if s.world != nil {
		c.addWorld(s.world)
	} else {
		for _, cm := range s.comms {
			c.addComm(cm)
		}
	}
	for _, sp := range s.spaces {
		c.addSpace(sp)
	}
	return c
}

// --- phase: one warm-up or timed pass over a session ---

type phase struct {
	in    *inputs
	ops   int
	base  int // first guid index this phase may use (dddf_fetch_1k)
	tr    *tracer
	every int
	epoch time.Time // zero of the send times that ride in payloads

	mu    sync.Mutex
	cs    []*client
	after func() int // extra failures found once the phase is over
}

func newPhase(in *inputs, ops, base int, tr *tracer) *phase {
	return &phase{in: in, ops: ops, base: base, tr: tr, every: ops*8/maxSpans + 1, epoch: time.Now()}
}

// client registers one caller goroutine; ops is how many latencies it
// will record (0 for the passive side of an exchange).
func (p *phase) client(id, rank, ops int) *client {
	c := newClient(id, ops, p.tr.buf(rank, p.ops/p.every*4+64), p.every)
	p.mu.Lock()
	p.cs = append(p.cs, c)
	p.mu.Unlock()
	return c
}

func opNo(client, i int) int64 { return int64(client)<<32 | int64(i+1) }

// phaseBody is what a micro-op workload runs in one phase: prep (still
// set-up, e.g. the home ranks' early puts) and then the ops themselves.
type phaseBody struct{ prep, run rankBody }

// microWindow opens a session, warms it up, and times one window of ops.
func microWindow(in *inputs, ranks int, tcp bool, home dddf.HomeFunc, ops, warm int, tr *tracer,
	mk func(s *session, p *phase) phaseBody) *window {
	sb := tr.buf(-1, 64)
	root := sb.beginRoot()
	t0 := time.Now()
	s := openSession(ranks, tcp, home, sb)
	b := mk(s, newPhase(in, warm, ops, nil))
	s.run(b.prep)
	s.run(b.run)
	p := newPhase(in, ops, 0, tr)
	b = mk(s, p)
	s.run(b.prep)
	win := &window{Traced: tr != nil, Ops: ops, SetupNS: int64(time.Since(t0))}

	before := s.counters()
	m := startMeter(tr != nil)
	s.run(b.run)
	win.counters = counters{}
	m.finish(win)
	win.counters.merge(s.counters().since(before))
	s.close(sb)
	sb.end(root)

	lat, failed := merge(p.cs)
	if p.after != nil {
		failed += p.after()
	}
	win.Lat, win.Failed = decimate(lat, maxLatPerWindow), min(failed, ops)
	return win
}

// --- span-wrapped calls into hcmpi ---

func isend(n *node.Node, sb *spanBuf, op int64, buf []byte, dest, tag int) *node.Request {
	x := sb.call(op, "hcmpi.Isend")
	r := n.Isend(buf, dest, tag)
	sb.end(x)
	return r
}

func irecv(n *node.Node, sb *spanBuf, op int64, buf []byte, src, tag int) *node.Request {
	x := sb.call(op, "hcmpi.Irecv")
	r := n.Irecv(buf, src, tag)
	sb.end(x)
	return r
}

func wait(n *node.Node, ctx *hc.Ctx, sb *spanBuf, op int64, r *node.Request) *node.Status {
	x := sb.call(op, "hcmpi.Wait")
	st := n.Wait(ctx, r)
	sb.end(x)
	return st
}

func recv(n *node.Node, ctx *hc.Ctx, sb *spanBuf, op int64, buf []byte, src, tag int) *node.Status {
	x := sb.call(op, "hcmpi.Recv")
	st := n.Recv(ctx, buf, src, tag)
	sb.end(x)
	return st
}

// --- pingpong_8b ---

const (
	tagPing = 1
	tagPong = 2
)

func pingpongWindow(in *inputs, ops, warm int, tr *tracer) *window {
	return microWindow(in, 2, false, nil, ops, warm, tr, func(_ *session, p *phase) phaseBody {
		return phaseBody{run: func(r int, n *node.Node, ctx *hc.Ctx) {
			c := p.client(r, r, p.ops*(1-r))
			out, back := make([]byte, 8), make([]byte, 8)
			for i := 0; i < p.ops; i++ {
				op, sb := opNo(0, i), c.span(i)
				if r == 1 { // echo side
					st := recv(n, ctx, sb, op, back, 0, tagPing)
					if wait(n, ctx, sb, op, isend(n, sb, op, back, 0, tagPong)).Err != nil || st.Err != nil {
						c.failed++
					}
					continue
				}
				t0 := time.Now()
				o := sb.beginOp(op)
				binary.LittleEndian.PutUint64(out, uint64(i)^p.in.salt)
				st := wait(n, ctx, sb, op, isend(n, sb, op, out, 1, tagPing))
				rt := recv(n, ctx, sb, op, back, 1, tagPong)
				sb.end(o)
				if c.tamper(i) {
					back[0] ^= 1
				}
				c.done(t0, st.Err == nil && rt.Err == nil && bytes.Equal(out, back))
			}
		}}
	})
}

// --- msgflood_8b and tcp_stream_64k ---

const (
	floodTasks = 4
	floodDepth = 64
	tagFlood   = 16 // + task
	tagAck     = 32 // + task
	seqBits    = 20 // a message header is sendTimeNS<<seqBits | sequence number
)

func msgfloodWindow(in *inputs, ops, warm int, tr *tracer) *window {
	return microWindow(in, 2, false, nil, ops, warm, tr, func(_ *session, p *phase) phaseBody {
		return flood(p, floodTasks, floodDepth, 8, nil)
	})
}

func tcpStreamWindow(in *inputs, ops, warm int, tr *tracer) *window {
	return microWindow(in, 2, true, nil, ops, warm, tr, func(_ *session, p *phase) phaseBody {
		return flood(p, streamTasks, streamDepth, streamBytes, in.blocks)
	})
}

// flood streams p.ops messages of size bytes from rank 0 to rank 1 over
// `tasks` sender/receiver task pairs, each keeping `depth` messages in
// flight and closing every batch with a 1-byte ack. The first 8 bytes of
// a message are its header; the rest is blocks[slot][8:].
func flood(p *phase, tasks, depth, size int, blocks [][]byte) phaseBody {
	per := p.ops / tasks
	sent, rcvd := make([]uint64, tasks), make([]uint64, tasks) // xor of all headers, per tag
	p.after = func() (bad int) {
		for k := range sent {
			if sent[k] != rcvd[k] {
				bad++
			}
		}
		return bad
	}
	sender := func(k int, n *node.Node, ctx *hc.Ctx) {
		c := p.client(tasks+k, 0, 0)
		bufs := make([][]byte, depth)
		for j := range bufs {
			if bufs[j] = make([]byte, 8); blocks != nil {
				bufs[j] = blocks[k*depth+j]
			}
		}
		reqs, ack := make([]*node.Request, depth), make([]byte, 1)
		for i := 0; i < per; i += depth {
			for j := range reqs {
				h := uint64(time.Since(p.epoch))<<seqBits | uint64(i+j)
				binary.LittleEndian.PutUint64(bufs[j], h)
				sent[k] ^= h
				reqs[j] = isend(n, c.span(i+j), opNo(k, i+j), bufs[j], 1, tagFlood+k)
			}
			sb, op := c.span(i), opNo(k, i)
			x := sb.call(op, "hcmpi.WaitAll")
			sts := n.WaitAll(ctx, reqs...)
			sb.end(x)
			for _, st := range sts {
				if st.Err != nil {
					c.failed++
				}
			}
			if recv(n, ctx, sb, op, ack, 1, tagAck+k).Err != nil {
				c.failed++
			}
		}
	}
	receiver := func(k int, n *node.Node, ctx *hc.Ctx) {
		c := p.client(k, 1, per)
		bufs, reqs := make([][]byte, depth), make([]*node.Request, depth)
		for j := range bufs {
			bufs[j] = make([]byte, size)
			reqs[j] = n.Irecv(bufs[j], 0, tagFlood+k)
		}
		var order stream
		var last uint64
		ack := make([]byte, 1)
		for i := 0; i < per; i += depth {
			for j := range reqs {
				op, sb := opNo(k, i+j), c.span(i+j)
				st := wait(n, ctx, sb, op, reqs[j])
				now := uint64(time.Since(p.epoch))
				h := binary.LittleEndian.Uint64(bufs[j])
				if c.tamper(i + j) {
					h ^= 1
				}
				rcvd[k] ^= h
				at := h >> seqBits
				ok := st.Err == nil && order.inOrder(h&(1<<seqBits-1)) && at >= last && at <= now &&
					(blocks == nil || bytes.Equal(bufs[j][8:], blocks[k*depth+j][8:]))
				last = at
				c.doneNS(int64(now-at), ok)
				if sb != nil {
					sb.recordOp(op, p.epoch.Add(time.Duration(at)), p.epoch.Add(time.Duration(now)))
				}
				if i+depth < per { // re-post the slot so the next batch finds its receive waiting
					reqs[j] = irecv(n, sb, op, bufs[j], 0, tagFlood+k)
				}
			}
			if n.Send(ctx, ack, 0, tagAck+k).Err != nil {
				c.failed++
			}
		}
	}
	return phaseBody{run: func(r int, n *node.Node, ctx *hc.Ctx) {
		side := []func(int, *node.Node, *hc.Ctx){sender, receiver}[r]
		ctx.Finish(func(ctx *hc.Ctx) {
			for k := 0; k < tasks; k++ {
				k := k
				ctx.Async(func(ctx *hc.Ctx) { side(k, n, ctx) })
			}
		})
	}}
}

// --- dddf_fetch_1k ---

const (
	dddfInFlight = 32 // guids a rank has in flight: half pull, half push
	dddfHalf     = dddfInFlight / 2
)

// A guid is index<<2 | home<<1 | push.
func dddfGuid(home, push, idx int) int64 { return int64(idx<<2 | home<<1 | push) }
func dddfHome(guid int64) int            { return int(guid>>1) & 1 }

func dddfFetchWindow(in *inputs, ops, warm int, tr *tracer) *window {
	return microWindow(in, 2, false, dddfHome, ops, warm, tr, func(s *session, p *phase) phaseBody {
		return dddfFetch(s, p)
	})
}

// dddfFetch resolves p.ops remote DDDFs. Each rank is home to half the
// guids and consumer of the other half. Pull guids were put by their
// home in prep, so an await is one register/data round trip. Push guids
// are registered by the consumer one batch before the home puts them, so
// a put is one data message to a waiting consumer.
func dddfFetch(s *session, p *phase) phaseBody {
	per := p.ops / 4 // guids per (consumer, pull|push) class
	idx := func(k int) int {
		if p.base == 0 {
			return p.in.perm[k] // the timed phase resolves guids in seed order
		}
		return p.base + k
	}
	var putAt [2][]atomic.Int64 // home rank → when it put its k-th push guid
	for r := range putAt {
		putAt[r] = make([]atomic.Int64, per)
	}
	value := func(guid int64) []byte {
		v := make([]byte, dddfBytes) // the space keeps the slice, so every put needs its own
		fillValue(v, guid, p.in.salt)
		return v
	}
	prep := func(r int, _ *node.Node, ctx *hc.Ctx) {
		for k := 0; k < per; k++ {
			g := dddfGuid(r, 0, idx(k))
			s.spaces[r].Handle(g).Put(ctx, value(g))
		}
	}
	run := func(r int, _ *node.Node, ctx *hc.Ctx) {
		sp, peer := s.spaces[r], 1-r
		c := p.client(r, r, 2*per)
		scratch := make([]byte, dddfBytes)
		batches := per / dddfHalf
		left := make([]atomic.Int32, batches)
		done := make([]*hc.DDF, batches)
		for b := range done {
			left[b].Store(dddfInFlight)
			done[b] = hc.NewDDF()
		}
		// arrived runs in the awaiting task: the guid's value is local now.
		arrived := func(ctx *hc.Ctx, h *dddf.Handle, i int, start time.Time, name string) {
			now := time.Now()
			got := h.MustGet()
			if c.tamper(i) {
				got = append([]byte{got[0] ^ 1}, got[1:]...)
			}
			c.doneNS(int64(now.Sub(start)), checkValue(got, h.Guid(), p.in.salt, scratch))
			if sb := c.span(i); sb != nil {
				sb.recordOp(opNo(r, i), start, now)
				sb.record(opNo(r, i), name, start, now)
			}
			if b := i / dddfInFlight; left[b].Add(-1) == 0 {
				done[b].Put(ctx, nil)
			}
		}
		// Ops of batch b are numbered b*32 + 0..15 (pull) and 16..31 (push).
		register := func(b int) {
			for k := b * dddfHalf; k < (b+1)*dddfHalf; k++ {
				k, i := k, b*dddfInFlight+dddfHalf+k%dddfHalf
				h := sp.Handle(dddfGuid(peer, 1, idx(k)))
				sp.AsyncAwait(ctx, func(ctx *hc.Ctx) {
					arrived(ctx, h, i, p.epoch.Add(time.Duration(putAt[peer][k].Load())), "dddf.put_to_run")
				}, h)
			}
		}
		register(0)
		for b := 0; b < batches; b++ {
			for k := b * dddfHalf; k < (b+1)*dddfHalf; k++ {
				g := dddfGuid(r, 1, idx(k))
				v := value(g)
				i := b*dddfInFlight + dddfHalf + k%dddfHalf // the consumer's op this put serves
				sb, op := c.span(i), opNo(peer, i)
				putAt[r][k].Store(int64(time.Since(p.epoch)))
				x := sb.call(op, "dddf.Put")
				sp.Handle(g).Put(ctx, v)
				sb.end(x)
			}
			for k := b * dddfHalf; k < (b+1)*dddfHalf; k++ {
				i := b*dddfInFlight + k%dddfHalf
				h := sp.Handle(dddfGuid(peer, 0, idx(k)))
				sb, t0 := c.span(i), time.Now()
				x := sb.call(opNo(r, i), "dddf.AsyncAwait")
				sp.AsyncAwait(ctx, func(ctx *hc.Ctx) { arrived(ctx, h, i, t0, "dddf.await_to_run") }, h)
				sb.end(x)
			}
			if b+1 < batches {
				register(b + 1)
			}
			ctx.Finish(func(ctx *hc.Ctx) { ctx.AsyncAwait(func(*hc.Ctx) {}, done[b]) })
		}
	}
	return phaseBody{prep: prep, run: run}
}

// --- allreduce_4r ---

const (
	allreduceRanks = 4
	allreduceWords = 16
)

func allreduceWindow(in *inputs, ops, warm int, tr *tracer) *window {
	return microWindow(in, allreduceRanks, false, nil, ops, warm, tr, func(_ *session, p *phase) phaseBody {
		return phaseBody{run: func(r int, n *node.Node, ctx *hc.Ctx) {
			c := p.client(r, r, p.ops)
			buf := make([]byte, allreduceWords*8)
			for i := 0; i < p.ops; i++ {
				op, sb := opNo(0, i), c.span(i)
				allreduceInput(buf, r, i, p.in.salt)
				t0 := time.Now()
				o := -1
				if r == 0 {
					o = sb.beginOp(op)
				}
				x := sb.call(op, "hcmpi.Allreduce")
				res := n.Allreduce(ctx, buf, mpi.Int64, mpi.OpSum)
				sb.end(x)
				sb.end(o)
				if c.tamper(i) {
					res[0] ^= 1
				}
				switch ok := allreduceOK(res, allreduceRanks, i, p.in.salt); {
				case r == 0: // one op is one collective: rank 0 times it, every rank checks it
					c.done(t0, ok)
				case !ok:
					c.failed++
				}
			}
		}}
	})
}

// --- uts_t3mid and sw_dddf: one op is a whole job, bring-up included ---

// solveWindow runs warm discarded solves (the set-up) and then ops timed
// ones. A solve is a fresh world and, on every rank, a fresh node, the
// job, and Close. job returns the rank's answer and the counters only it
// can read; correct judges all ranks' answers against the reference.
func solveWindow(ops, warm int, tr *tracer, ranks int,
	job func(r int, n *node.Node, b *spanBuf, op int64) (int64, counters),
	correct func(answers []int64) bool) *window {
	sb := tr.buf(-1, 2*ops+64)
	rsb := make([]*spanBuf, ranks)
	for r := range rsb {
		rsb[r] = tr.buf(r, 8*ops+64)
	}
	// solve adds the solve's counters to c when c is not nil.
	solve := func(op int64, sb *spanBuf, rsb []*spanBuf, c counters) []int64 {
		x := sb.call(op, "mpi.NewWorld")
		world := mpi.NewWorld(ranks)
		sb.end(x)
		var mu sync.Mutex // guards c
		answers := make([]int64, ranks)
		eachRank(ranks, func(r int) {
			b := rsb[r]
			x := b.call(op, "hcmpi.NewNode")
			n := node.NewNode(world.Comm(r), nodeConfig())
			b.end(x)
			var own counters
			answers[r], own = job(r, n, b, op)
			x = b.call(op, "hcmpi.Close")
			n.Close()
			b.end(x)
			if c != nil {
				mu.Lock()
				c.merge(own)
				c.addNode(n)
				mu.Unlock()
			}
		})
		if c != nil {
			c.addWorld(world)
		}
		world.Close()
		return answers
	}

	root := sb.beginRoot()
	t0 := time.Now()
	for i := 0; i < warm; i++ {
		solve(0, nil, make([]*spanBuf, ranks), nil)
	}
	win := &window{Traced: tr != nil, Ops: ops, SetupNS: int64(time.Since(t0)), counters: counters{}}
	cl := newClient(0, ops, sb, 1)
	m := startMeter(tr != nil)
	for i := 0; i < ops; i++ {
		op := opNo(0, i)
		t := time.Now()
		o := sb.beginOp(op)
		answers := solve(op, sb, rsb, win.counters)
		sb.end(o)
		if cl.tamper(i) {
			answers[0]++
		}
		cl.done(t, correct(answers))
	}
	m.finish(win)
	sb.end(root)
	win.Lat, win.Failed = merge([]*client{cl})
	return win
}

func utsWindow(in *inputs, ops, warm int, tr *tracer) *window {
	return solveWindow(ops, warm, tr, 2,
		func(_ int, n *node.Node, b *spanBuf, op int64) (int64, counters) {
			x := b.call(op, "distsched.Run")
			ctr := uts.RunHCMPI(n, in.uts, uts.DefaultParams)
			b.end(x)
			return ctr.Nodes, counters{"uts_nodes": ctr.Nodes, "uts_work_ns": int64(ctr.Work),
				"uts_overhead_ns": int64(ctr.Overhead), "uts_search_ns": int64(ctr.Search)}
		},
		func(nodes []int64) bool { return nodes[0]+nodes[1] == in.utsNodes })
}

func swWindow(in *inputs, ops, warm int, tr *tracer) *window {
	home := sw.HomeFunc(in.sw, sw.DiagonalBlocks, 2)
	return solveWindow(ops, warm, tr, 2,
		func(_ int, n *node.Node, b *spanBuf, op int64) (int64, counters) {
			x := b.call(op, "dddf.NewSpace")
			sp := dddf.NewSpace(n, home, nil)
			b.end(x)
			var score int32
			x = b.call(op, "sw.RunDDDF")
			n.Main(func(ctx *hc.Ctx) { score = sw.RunDDDF(sp, ctx, in.sw, sw.DiagonalBlocks) })
			b.end(x)
			own := counters{}
			own.addSpace(sp)
			return int64(score), own
		},
		func(scores []int64) bool { return scores[0] == int64(in.swScore) && scores[1] == int64(in.swScore) })
}
