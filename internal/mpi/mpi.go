// Package mpi is a from-scratch message-passing substrate with the
// semantics HCMPI needs from an MPI library: ranks, communicators, tags
// with wildcards, non-overtaking point-to-point matching with posted and
// unexpected queues, non-blocking requests with Test/Wait/Cancel,
// collectives as schedules, and fence-synchronized RMA.
//
// Go has no mature MPI bindings, so "processes" are goroutine groups
// inside one OS process and the interconnect is the pipe model in
// package netsim (see DESIGN.md §2 for why this substitution preserves
// the behaviours the paper's evaluation depends on). Every entry point
// may be called from any goroutine: an endpoint's matching queues,
// request pool and send-op pool each sit behind their own mutex, so
// concurrent callers pay the real contention on those locks and no
// modelled cost. HCMPI itself funnels every call through one
// communication worker per rank.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hcmpi/internal/bufpool"
	"hcmpi/internal/netsim"
	"hcmpi/internal/trace"
)

// Wildcards for Recv/Irecv/Iprobe matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// maxUserTag bounds application tags; larger tags are reserved for
// collectives and runtime protocols.
const maxUserTag = 1 << 24

// Options configure a World.
type Options struct {
	// Net selects the interconnect model. Default: netsim.Loopback.
	Net netsim.Params
	// RanksPerNode places consecutive ranks on the same node, modelling
	// "MPI everywhere" runs with several ranks per physical node.
	// Default 1 (every rank its own node).
	RanksPerNode int
	// Faults, when non-nil, installs a deterministic fault-injection
	// schedule on the interconnect (see netsim.Faults). Zero-valued
	// faults inject nothing and cost nothing.
	Faults *netsim.Faults
	// Tracer, when non-nil, records per-rank MPI endpoint events (send
	// and receive posts, matches) and interconnect fault events on the
	// trace timeline.
	Tracer *trace.Tracer
}

// Option mutates Options.
type Option func(*Options)

// WithNetwork selects the interconnect parameters.
func WithNetwork(p netsim.Params) Option { return func(o *Options) { o.Net = p } }

// WithRanksPerNode places k consecutive ranks per node.
func WithRanksPerNode(k int) Option { return func(o *Options) { o.RanksPerNode = k } }

// WithFaults installs a deterministic fault-injection schedule on the
// world's interconnect.
func WithFaults(f netsim.Faults) Option { return func(o *Options) { o.Faults = &f } }

// WithTracer attaches a trace timeline to the world's endpoints and
// interconnect.
func WithTracer(t *trace.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// World is a simulated MPI job: n ranks plus the network joining them.
type World struct {
	n       int
	net     *netsim.Network
	comms   []*Comm
	opts    Options
	metrics *trace.Metrics
}

// NewWorld creates a world of n ranks.
func NewWorld(n int, opts ...Option) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: world size %d", n))
	}
	o := Options{RanksPerNode: 1}
	for _, f := range opts {
		f(&o)
	}
	if o.RanksPerNode <= 0 {
		o.RanksPerNode = 1
	}
	w := &World{n: n, opts: o, metrics: trace.NewMetrics()}
	w.net = netsim.New(n, func(r int) int { return r / o.RanksPerNode }, o.Net)
	if o.Faults != nil {
		w.net.SetFaults(*o.Faults)
	}
	w.net.SetTrace(o.Tracer.Register(trace.NetPid, 0, "faults", trace.TrackNet))
	w.net.Buffers().SetMetrics(w.metrics)
	w.comms = make([]*Comm, n)
	for r := 0; r < n; r++ {
		w.comms[r] = newComm(w, r)
	}
	return w
}

// Metrics exposes the world's counter registry (request-pool and
// buffer-pool hit rates).
func (w *World) Metrics() *trace.Metrics { return w.metrics }

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Net exposes the underlying network (for stats).
func (w *World) Net() *netsim.Network { return w.net }

// Comm returns rank r's communicator handle without running anything;
// useful for runtimes that manage their own goroutines.
func (w *World) Comm(r int) *Comm { return w.comms[r] }

// Run executes body once per rank, each in its own goroutine (the SPMD
// model), waits for all of them, then shuts the network down.
func (w *World) Run(body func(c *Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < w.n; r++ {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			body(c)
		}(w.comms[r])
	}
	wg.Wait()
	w.net.Close()
}

// Close shuts down the network; use after manual Comm() driving.
func (w *World) Close() { w.net.Close() }

// Comm is one rank's endpoint on the communicator. A Comm belongs
// either to an in-process World (goroutine ranks over the modelled
// interconnect) or to a distributed TCP mesh (see Distributed); all
// higher layers are transport-agnostic.
type Comm struct {
	world *World // nil for distributed comms
	rank  int
	size  int
	node  int
	// sendHook, when non-nil, replaces the whole send path: the transport
	// stages its own copy of buf and owns completing req (the TCP mesh's
	// asynchronous enqueue). It takes precedence over both netsim send
	// paths, the pooled one and the closure one of a duplicating fault
	// plane.
	// With owned set, buf is a pool buffer the hook takes over as is.
	sendHook func(req *Request, buf []byte, dest, tag int, owned bool)
	// failedFn reports whether a peer rank has crashed (nil: no failure
	// detector).
	failedFn func(rank int) bool
	// matching state, guarded by mu.
	mu         sync.Mutex
	posted     []*Request // pending receive requests, post order
	unexpected []inMsg    // unmatched arrived messages, arrival order

	// collSeq numbers collective operations so that successive
	// collectives never cross-match; all ranks call collectives in the
	// same order, so the counters agree.
	collSeq int

	// RMA window registry (guarded by mu).
	wins    map[int]*Win
	nextWin int

	// ring is this endpoint's trace track (nil with tracing disabled).
	// It is written from application, comm-worker, and delivery
	// goroutines; the ring's slot atomics make that safe.
	ring *trace.Ring

	// Request / send-op recycling (see Request.Free and sendOp). bufs is
	// the transport's shared payload pool (nil on transports without
	// one); fastSend gates the closure-free pooled send path — it is off
	// for fault planes that can duplicate messages, where a delivery
	// callback may run twice on one payload.
	reqMu    sync.Mutex
	reqPool  []*Request
	sendMu   sync.Mutex
	sendOps  []*sendOp
	bufs     *bufpool.Pool
	fastSend bool
	reqHit   *trace.Counter
	reqMiss  *trace.Counter

	// resends is the counter the send core adds this endpoint's
	// retransmissions of dropped messages to (CountResends); nil until a
	// runtime installs one.
	resends atomic.Pointer[trace.Counter]
	// onReserved is called after every delivery on a reserved tag
	// (NotifyReserved); nil until a runtime installs it.
	onReserved atomic.Pointer[func()]

	// metrics is the endpoint's counter registry: the world's for netsim
	// comms, the mesh's for distributed comms.
	metrics *trace.Metrics
}

// Metrics exposes this endpoint's counter registry (request/buffer pool
// hit rates; comm_tcp_* transport counters on distributed comms).
func (c *Comm) Metrics() *trace.Metrics { return c.metrics }

// CountResends makes every later retransmission of a dropped message
// this endpoint sent add one to ctr: a runtime's per-rank counter (the
// endpoint's metrics registry is the world's on netsim, shared by every
// rank).
func (c *Comm) CountResends(ctr *trace.Counter) { c.resends.Store(ctr) }

// NotifyReserved makes every later message that arrives on a reserved
// (negative) tag call fn once it has been matched to a posted receive or
// queued as unexpected: a runtime whose progress engine sleeps between
// sweeps wakes it this way (RMA tags, applied on delivery, excepted). fn
// runs on the delivering goroutine and must not block.
func (c *Comm) NotifyReserved(fn func()) { c.onReserved.Store(&fn) }

// Buffers exposes the transport's payload pool, for runtime protocols
// that build messages in place and send them with IsendReservedOwned.
// Nil on a transport without one; a nil pool allocates.
func (c *Comm) Buffers() *bufpool.Pool { return c.bufs }

type inMsg struct {
	src, tag int
	payload  []byte
	// pooled marks payloads staged from the transport's buffer pool;
	// the receive path recycles them after copying.
	pooled bool
}

func newComm(w *World, rank int) *Comm {
	c := &Comm{world: w, rank: rank, size: w.n, node: w.net.NodeOf(rank)}
	c.ring = w.opts.Tracer.Register(rank, trace.MPITid, "mpi", trace.TrackMPI)
	c.metrics = w.metrics
	c.bufs = w.net.Buffers()
	c.fastSend = w.opts.Faults == nil || w.opts.Faults.DupProb <= 0
	c.reqHit = w.metrics.Counter("mpi_req_pool_hit")
	c.reqMiss = w.metrics.Counter("mpi_req_pool_miss")
	c.failedFn = w.net.Failed
	return c
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

// Node returns the node id hosting this rank.
func (c *Comm) Node() int { return c.node }

func checkUserTag(tag int) {
	if tag < 0 || tag >= maxUserTag {
		panic(fmt.Sprintf("mpi: user tag %d out of range [0,%d)", tag, maxUserTag))
	}
}

func checkRank(r, size int) {
	if r < 0 || r >= size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, size))
	}
}
