// Package hcmpi is the paper's primary contribution: the integration of
// Habanero-C asynchronous task parallelism with MPI message passing.
//
// Each MPI rank runs one Node: a pool of computation workers (package hc)
// plus one dedicated communication worker. Computation tasks never call
// MPI directly; every HCMPI call creates a communication task that flows
// through the lifecycle of the paper's Fig. 11 —
//
//	ALLOCATED → PRESCRIBED → ACTIVE → COMPLETED → AVAILABLE
//
// — on a lock-free multi-producer worklist, with completed task
// structures recycled through a lock-free free-list. The worklist is
// consumed by the progress engine (progress.go): one try-locked sweep
// that the dedicated worker always drives and that an idle or waiting
// computation worker may drive in its place, so exactly one goroutine at
// a time is "the communication worker". An HCMPI request handle is a DDF
// (paper §III), so message completion composes with every Habanero
// synchronization construct: finish, the await clause, and phasers.
package hcmpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hcmpi/internal/deque"
	"hcmpi/internal/hc"
	"hcmpi/internal/invariant"
	"hcmpi/internal/mpi"
	"hcmpi/internal/trace"
)

// CommState is a communication task's lifecycle state (paper Fig. 11).
type CommState int32

const (
	// StateAvailable marks a recycled task awaiting reuse.
	StateAvailable CommState = iota
	// StateAllocated marks a task being initialized by a computation
	// worker.
	StateAllocated
	// StatePrescribed marks a fully described task visible to the
	// communication worker.
	StatePrescribed
	// StateActive marks a task whose MPI operation has been issued and is
	// being polled with MPI_Test.
	StateActive
	// StateCompleted marks a finished operation whose status has been
	// published.
	StateCompleted
)

func (s CommState) String() string {
	switch s {
	case StateAvailable:
		return "AVAILABLE"
	case StateAllocated:
		return "ALLOCATED"
	case StatePrescribed:
		return "PRESCRIBED"
	case StateActive:
		return "ACTIVE"
	case StateCompleted:
		return "COMPLETED"
	}
	return fmt.Sprintf("CommState(%d)", int32(s))
}

type commKind int32

const (
	kindNone commKind = iota
	kindIsend
	kindIrecv
	// kindCollective runs a collective: the task carries its described
	// schedule, which dispatch starts and the sweep advances.
	kindCollective
	kindListen
	kindShutdown
	// kindCancel asks the communication worker to cancel an outstanding
	// operation identified by its HCMPI request (HCMPI_Cancel).
	kindCancel
	// kindOneSided issues an RMA operation (request polled like p2p).
	kindOneSided
	// kindFlush sends an Outbox frame. The task is prescribed empty and
	// binds the frame when it is dispatched; from then on it is a
	// kindIsend whose buffer it owns (polled and timed out as a unit),
	// told apart by its outbox field.
	kindFlush
)

// commTask is one unit of work for the communication worker.
type commTask struct {
	state atomic.Int32
	kind  commKind
	// id tags the operation across its lifecycle for the trace timeline;
	// it is reassigned on every allocation (recycled structures get a
	// fresh id, so Perfetto's async lanes never merge two operations).
	id int64

	buf      []byte
	peer     int // dest or src
	tag      int
	takeAll  bool
	listenFn func(src int, payload []byte)

	req     *mpi.Request // underlying MPI request while ACTIVE
	request *Request     // HCMPI-level handle to complete
	// coll is a kindCollective task's schedule. A task gets one the first
	// time it carries a collective (collTask) and keeps it, request lists
	// included, across recycling.
	coll *mpi.Schedule
	// issue starts a one-sided operation (kindOneSided).
	issue func() *mpi.Request
	// cancelTarget identifies the request a kindCancel task refers to.
	cancelTarget *Request
	// outbox is where a kindFlush task binds its frame at dispatch; it
	// stays set on the send the task becomes, marking buf as a pool
	// buffer the task owns rather than the caller's.
	outbox *Outbox

	// deadline is the operation's overall deadline (zero = none).
	deadline time.Time

	// The padding rounds the task up to three 64-byte cache lines. Tasks
	// sit back to back in their allocation size class, and a task
	// straddling a line with its neighbour is falsely shared between the
	// goroutines that prescribe and sweep them: at 176 bytes pingpong_8b
	// made 0.84 × the round trips per second it makes at 192 (ten of ten
	// pairs). TestCommTaskFillsCacheLines holds the size.
	_ [48]byte
}

func (t *commTask) setState(s CommState) { t.state.Store(int32(s)) }

// State returns the task's current lifecycle state.
func (t *commTask) State() CommState { return CommState(t.state.Load()) }

func (t *commTask) reset() {
	if t.kind == kindCollective {
		t.coll.Reset()
	}
	t.kind = kindNone
	t.buf = nil
	t.peer, t.tag = 0, 0
	t.takeAll = false
	t.listenFn = nil
	t.req, t.request = nil, nil
	t.issue = nil
	t.cancelTarget = nil
	t.outbox = nil
	t.deadline = time.Time{}
}

// Status is the HCMPI completion record (HCMPI_Status).
type Status struct {
	Source    int
	Tag       int
	Bytes     int
	Cancelled bool
	// Err is non-nil when the operation failed instead of completing:
	// mpi.ErrTimeout, mpi.ErrRankFailed, or mpi.ErrMessageDropped (mpi's
	// send core retransmitted it and gave up). A failed request still
	// completes its DDF, so awaiting tasks run (and finish scopes drain)
	// instead of deadlocking; they observe the error through this field.
	Err error
	// Payload is set for operations that adopt variable-size data
	// (RecvBytes-style receives and collective results).
	Payload []byte
	// Parts is set for gather-style collectives.
	Parts [][]byte
}

// CountOf returns the received element count for a datatype
// (HCMPI_Get_count).
func (s *Status) CountOf(dt mpi.Datatype) int {
	if dt.Size == 0 {
		return 0
	}
	return s.Bytes / dt.Size
}

// Request is the HCMPI request handle. It is implemented as a DDF (paper
// §III): the communication worker puts the Status into it on completion,
// so requests can appear anywhere a DDF can — most importantly in await
// clauses of data-driven tasks.
type Request struct {
	ddf hc.DDF
}

// DDF exposes the underlying data-driven future, for use in await
// clauses.
func (r *Request) DDF() *hc.DDF { return &r.ddf }

// Test reports completion without blocking (HCMPI_Test).
func (r *Request) Test() (*Status, bool) {
	if !r.ddf.Full() {
		return nil, false
	}
	return r.status(), true
}

// GetStatus returns the completion status; it is a program error to call
// it before the request completed (HCMPI_GET_STATUS is a DDF_GET).
func (r *Request) GetStatus() (*Status, error) {
	v, err := r.ddf.Get()
	if err != nil {
		return nil, err
	}
	return v.(*Status), nil
}

// Config parameterizes a Node.
type Config struct {
	// Workers is the number of computation workers (the paper's -nproc).
	Workers int
	// OpTimeout bounds every communication operation (point-to-point,
	// one-sided, and collective): an operation not complete within the
	// window fails with mpi.ErrTimeout in its Status instead of blocking
	// its awaiters forever. 0 (the default) disables timeouts; chaos
	// runs under partitions or rank crashes should set it.
	OpTimeout time.Duration
	// Tracer, when non-nil, records a timeline of this node's workers:
	// one track per computation worker, one for the communication
	// worker, and one for phaser activity. Nil (the default) disables
	// tracing; the instrumented paths then cost one nil check.
	Tracer *trace.Tracer
}

// Node is one HCMPI process: computation workers + a dedicated
// communication worker bound to one MPI rank.
type Node struct {
	comm *mpi.Comm
	rt   *hc.Runtime
	cfg  Config

	worklist  *deque.MPSC[commTask]
	freelist  *deque.Stack[commTask]
	commDeque *deque.Deque[hc.Task] // continuations freed by the dedicated worker

	// sweepMu is the progress try-lock: its holder is the communication
	// worker for the length of one sweep. Nobody ever waits for it, and it
	// guards everything down to ring (single-owner state of the sweep).
	sweepMu sync.Mutex
	// active holds the ACTIVE tasks: point-to-point and one-sided
	// operations polled with MPI_Test, and collectives whose schedules
	// the sweep advances.
	active    []*commTask
	listeners []*listener
	// driver is the computation worker driving the current sweep, nil
	// when the dedicated worker does; ring is where the sweep's trace
	// events go (the driver's timeline, else commRing).
	driver *hc.Ctx
	ring   *trace.Ring

	stop    atomic.Bool
	stopped chan struct{}
	// asleep is the dedicated worker's wake word (awake, asleepTimed or
	// asleepQuiet), and wake the one-slot channel it sleeps on: whoever
	// publishes work only the dedicated worker would find reads the word
	// after publishing, and kicks a sleeper (progress.go).
	asleep atomic.Int32
	wake   chan struct{}

	// Observability: opSeq issues comm-op ids for the trace timeline;
	// commRing and phaserRing are nil when tracing is disabled. The
	// counters live in the node's unified metrics registry (shared with
	// the hc runtime) and are read through StatsSnapshot.
	opSeq      atomic.Int64
	tracer     *trace.Tracer
	commRing   *trace.Ring
	phaserRing *trace.Ring
	stats      statCounters
}

// statCounters holds the node's registered metrics counters.
type statCounters struct {
	sends, recvs, collectives   *trace.Counter
	recycled, allocated         *trace.Counter
	polls, dispatched           *trace.Counter
	retries, timeouts, failures *trace.Counter
	stolen, contended           *trace.Counter
}

// listener is a persistent receive the progress engine keeps posted
// on behalf of the runtime (DDDF protocol) or application (UTS steal
// handling).
type listener struct {
	tag  int
	fn   func(src int, payload []byte)
	req  *mpi.Request
	halt bool
}

// StatsSnapshot is a point-in-time copy of the communication-worker
// counters. It replaces the earlier mutable *Stats accessor, which
// leaked a pointer into state the communication worker kept mutating —
// a reader comparing two fields could see them from different moments
// (and the race detector rightly objected). A value snapshot is
// coherent per field and free of aliasing.
type StatsSnapshot struct {
	Sends       int64
	Recvs       int64
	Collectives int64
	Recycled    int64
	Allocated   int64
	Polls       int64
	Dispatched  int64
	// Fault-plane counters: retransmissions of this rank's dropped
	// messages (made by mpi's send core), timed out operations, and
	// operations completed with a non-nil Err.
	Retries  int64
	Timeouts int64
	Failures int64
	// Progress stealing: sweeps driven by a computation worker instead of
	// the dedicated one (they count in Polls too), and attempts to sweep
	// that found another goroutine already sweeping.
	ProgressStolen    int64
	ProgressContended int64
}

// NewNode starts an HCMPI process over MPI rank c with cfg.Workers
// computation workers and one communication worker.
func NewNode(c *mpi.Comm, cfg Config) *Node {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	n := &Node{
		comm:      c,
		cfg:       cfg,
		worklist:  deque.NewMPSC[commTask](),
		freelist:  deque.NewStack[commTask](),
		commDeque: deque.NewDeque[hc.Task](),
		stopped:   make(chan struct{}),
		wake:      make(chan struct{}, 1),
	}
	n.rt = hc.NewTraced(cfg.Workers, cfg.Tracer, c.Rank(), n.commDeque)
	n.tracer = cfg.Tracer
	n.commRing = cfg.Tracer.Register(c.Rank(), cfg.Workers, "comm", trace.TrackComm)
	n.ring = n.commRing
	n.phaserRing = cfg.Tracer.Register(c.Rank(), cfg.Workers+1, "phasers", trace.TrackPhaser)
	m := n.rt.Metrics()
	n.stats = statCounters{
		sends:       m.Counter("comm_sends"),
		recvs:       m.Counter("comm_recvs"),
		collectives: m.Counter("comm_collectives"),
		recycled:    m.Counter("comm_recycled"),
		allocated:   m.Counter("comm_allocated"),
		polls:       m.Counter("comm_polls"),
		dispatched:  m.Counter("comm_dispatched"),
		retries:     m.Counter("comm_retries"),
		timeouts:    m.Counter("comm_timeouts"),
		failures:    m.Counter("comm_failures"),
		stolen:      m.Counter("comm_progress_stolen"),
		contended:   m.Counter("comm_progress_contended"),
	}
	c.CountResends(n.stats.retries)
	c.NotifyReserved(n.kick)
	n.rt.SetIdleProgress(n.idleSweep)
	go n.commWorker()
	return n
}

// Rank returns this node's MPI rank.
func (n *Node) Rank() int { return n.comm.Rank() }

// Size returns the number of ranks in the job.
func (n *Node) Size() int { return n.comm.Size() }

// Workers returns the computation worker count.
func (n *Node) Workers() int { return n.rt.NumWorkers() }

// Runtime exposes the intra-node task runtime.
func (n *Node) Runtime() *hc.Runtime { return n.rt }

// StatsSnapshot returns a point-in-time copy of the communication-worker
// counters.
func (n *Node) StatsSnapshot() StatsSnapshot {
	return StatsSnapshot{
		Sends:       n.stats.sends.Load(),
		Recvs:       n.stats.recvs.Load(),
		Collectives: n.stats.collectives.Load(),
		Recycled:    n.stats.recycled.Load(),
		Allocated:   n.stats.allocated.Load(),
		Polls:       n.stats.polls.Load(),
		Dispatched:  n.stats.dispatched.Load(),
		Retries:     n.stats.retries.Load(),
		Timeouts:    n.stats.timeouts.Load(),
		Failures:    n.stats.failures.Load(),

		ProgressStolen:    n.stats.stolen.Load(),
		ProgressContended: n.stats.contended.Load(),
	}
}

// Metrics exposes the node's unified counter registry (shared with the
// intra-node task runtime).
func (n *Node) Metrics() *trace.Metrics { return n.rt.Metrics() }

// Tracer returns the tracer the node was configured with (nil when
// tracing is disabled).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// traceState moves a task to state s and records the transition on
// ring: commRing for allocation and prescription (on whichever goroutine
// makes the call), n.ring inside a sweep — the timeline of whoever
// drives it.
func (n *Node) traceState(ring *trace.Ring, t *commTask, s CommState) {
	t.setState(s)
	ring.Emit(trace.EvCommState, t.id, int64(s))
}

// Main runs f as the node's root task and returns when f and everything
// it spawned have completed (the program's implicit outer finish).
func (n *Node) Main(f func(*hc.Ctx)) {
	n.rt.Root(f)
}

// Close performs the global termination protocol: it waits for all ranks
// to reach Close (so no rank shuts its listeners down while peers may
// still send to them), then stops the communication worker and the
// computation workers.
func (n *Node) Close() {
	// Synchronize all ranks through a comm-worker barrier.
	t := n.collTask()
	t.coll.Barrier()
	n.collective(nil, t)

	n.shutdown()
}

// shutdown is Close after its barrier: it stops the dedicated worker,
// waking it if it sleeps, then the computation workers.
func (n *Node) shutdown() {
	n.stop.Store(true)
	n.kick()
	<-n.stopped
	n.rt.Shutdown()
}

// ReleaseTask implements hc.Releaser for puts made during a sweep (the
// request completions of completeLocal, and listener callbacks such as
// the DDDF data handler). Continuations freed by the dedicated worker go
// to its own deque, to be stolen by computation workers (paper §III);
// when a computation worker drives the sweep they land on that worker's
// deque directly, sparing the steal.
func (n *Node) ReleaseTask(t hc.Task) {
	if n.driver != nil {
		n.driver.ReleaseTask(t)
		return
	}
	n.commDeque.Push(&t)
	n.rt.Wake()
}

func (n *Node) newRequest() *Request { return &Request{} }

// allocTask takes a task from the AVAILABLE pool or allocates one
// (ALLOCATED state).
func (n *Node) allocTask() *commTask {
	if t, ok := n.freelist.Pop(); ok {
		if s := t.State(); s != StateAvailable {
			panic(fmt.Sprintf("hcmpi: free-list handed out a %v task", s))
		}
		n.stats.recycled.Add(1)
		t.id = n.opSeq.Add(1)
		n.traceState(n.commRing, t, StateAllocated)
		return t
	}
	n.stats.allocated.Add(1)
	t := &commTask{id: n.opSeq.Add(1)}
	n.traceState(n.commRing, t, StateAllocated)
	return t
}

// collTask takes a task for a collective: the caller describes the
// collective on its schedule and runs it with collective or
// startCollective.
func (n *Node) collTask() *commTask {
	t := n.allocTask()
	if t.coll == nil {
		t.coll = &mpi.Schedule{}
	}
	return t
}

// prescribe publishes a fully initialized task to the communication
// worker. A runtime operation — a reserved tag, a frame, a collective, a
// listener — kicks a sleeping dedicated worker, since its protocol may
// have nobody else to drive it; a user send or receive kicks only a
// quiet one, which would otherwise never poll it.
func (n *Node) prescribe(t *commTask) {
	invariant.Assertf(t.State() == StateAllocated,
		"hcmpi: prescribing a %v task (must come fresh from allocTask)", t.State())
	// Read before the push: from then on the task is the sweep's, which
	// may complete and recycle it at once.
	user := (t.kind == kindIsend || t.kind == kindIrecv) && !reservedTag(t.tag)
	n.traceState(n.commRing, t, StatePrescribed)
	n.worklist.Push(t)
	if !user {
		n.kick()
	} else if n.asleep.Load() == asleepQuiet {
		n.signal()
	}
}

// reservedTag reports whether tag is a runtime protocol's: negative, and
// not the AnyTag wildcard.
func reservedTag(tag int) bool { return tag < 0 && tag != mpi.AnyTag }

// retire recycles a completed task structure. Only COMPLETED tasks may be
// recycled: a task still ACTIVE (polled, or advancing a collective
// schedule) reaching here would be a use-after-free in the making, so
// the lifecycle is asserted, which the recycling stress test leans on.
func (n *Node) retire(t *commTask) {
	if s := t.State(); s != StateCompleted {
		panic(fmt.Sprintf("hcmpi: retiring a %v task", s))
	}
	t.reset()
	n.traceState(n.ring, t, StateAvailable)
	n.freelist.Push(t)
}

func (n *Node) haltListeners() {
	for _, l := range n.listeners {
		if !l.halt {
			l.req.Cancel()
			l.halt = true
		}
	}
}

// isend issues a send task's MPI operation. A flush task's frame is a
// pool buffer handed over without a staging copy: the transport owns it
// from here on, whatever the outcome.
func (n *Node) isend(t *commTask) *mpi.Request {
	if t.outbox != nil {
		return n.comm.IsendReservedOwned(t.buf, t.peer, t.tag)
	}
	if t.tag < 0 {
		return n.comm.IsendReserved(t.buf, t.peer, t.tag)
	}
	return n.comm.Isend(t.buf, t.peer, t.tag)
}

// timeoutTask fails an operation that overran OpTimeout. Receives are
// withdrawn through Cancel, whose posted-queue commit point decides races
// against a concurrent matching delivery: if the delivery won, the real
// completion is published instead of the timeout. A collective's
// schedule is aborted, which withdraws its posted receives the same way.
func (n *Node) timeoutTask(t *commTask) {
	if t.kind == kindCollective {
		t.coll.Abort()
	} else if !t.req.Cancel() {
		if st, ok := t.req.TestStatus(); ok {
			n.finishP2P(t, &st)
			return
		}
		// A send still in flight (or a receive matched but not yet
		// filled): abandon the MPI request; its late completion is
		// ignored because the task is no longer polled. Deliberately NOT
		// freed — the transport still holds a reference, and recycling a
		// handle the network may yet complete invites a cross-operation
		// mixup the generation fence exists to prevent, not to invite.
	} else {
		t.req.Free() // cancelled: withdrawn from the posted queue, inert
	}
	n.stats.timeouts.Add(1)
	n.stats.failures.Add(1)
	n.completeLocal(t, &Status{Err: mpi.ErrTimeout})
}

// finishP2P publishes a (possibly errored) terminal p2p completion.
func (n *Node) finishP2P(t *commTask, st *mpi.Status) {
	if st.Err != nil {
		n.stats.failures.Add(1)
		if errors.Is(st.Err, mpi.ErrTimeout) {
			n.stats.timeouts.Add(1)
		}
	}
	n.completeP2P(t, st)
}

// settle publishes a polled operation whose MPI request has completed
// with st.
func (n *Node) settle(t *commTask, st *mpi.Status) {
	n.ring.Emit(trace.EvCommBusyStart, t.id, int64(t.kind))
	id := t.id // publishing recycles t
	n.finishP2P(t, st)
	n.ring.Emit(trace.EvCommBusyEnd, id, 0)
}

// activate makes t, whose MPI operation was just issued as t.req, ACTIVE.
// An operation the transport completed on the spot (a send delivered
// inline, a receive matched by an already-arrived message) is settled
// here; the rest get their deadline and join the polled set.
func (n *Node) activate(t *commTask, clk *sweepClock) {
	n.traceState(n.ring, t, StateActive)
	if st, ok := t.req.TestStatus(); ok {
		n.settle(t, &st)
		return
	}
	n.watch(t, clk)
}

// watch adds an ACTIVE task to the polled set, with its deadline.
func (n *Node) watch(t *commTask, clk *sweepClock) {
	if d := n.cfg.OpTimeout; d > 0 {
		t.deadline = clk.now().Add(d)
	}
	n.active = append(n.active, t)
}

// advance advances a collective task's schedule and publishes its result
// once it has finished, reporting whether it has. A schedule that ran
// through an errored round (a crashed peer) completes with that error.
func (n *Node) advance(t *commTask) bool {
	if !t.coll.Progress() {
		return false
	}
	res, err := t.coll.Payload(), t.coll.Err()
	if err != nil {
		n.stats.failures.Add(1)
	}
	n.completeLocal(t, &Status{Bytes: len(res), Payload: res, Parts: t.coll.Parts(), Err: err})
	return true
}

// dispatch issues one prescribed task and makes it ACTIVE. Collectives
// take their sequence numbers here, so every rank starts them in its
// dispatch order — the order its tasks prescribed them in.
func (n *Node) dispatch(t *commTask, clk *sweepClock) {
	invariant.Assertf(t.State() == StatePrescribed,
		"hcmpi: dispatching a %v task (worklist must carry PRESCRIBED tasks only)", t.State())
	switch t.kind {
	case kindIsend:
		n.stats.sends.Add(1)
		t.req = n.isend(t)
		n.activate(t, clk)
	case kindIrecv:
		n.stats.recvs.Add(1)
		switch {
		case reservedTag(t.tag):
			t.req = n.comm.IrecvReserved(t.peer, t.tag)
			t.takeAll = true
		case t.takeAll:
			t.req = n.comm.IrecvAdopt(t.peer, t.tag)
		default:
			t.req = n.comm.Irecv(t.buf, t.peer, t.tag)
		}
		n.activate(t, clk)
	case kindListen:
		l := &listener{tag: t.tag, fn: t.listenFn}
		l.req = n.comm.IrecvReserved(mpi.AnySource, t.tag)
		n.listeners = append(n.listeners, l)
		n.completeLocal(t, &Status{})
	case kindOneSided:
		n.stats.sends.Add(1)
		t.req = t.issue()
		n.activate(t, clk)
	case kindFlush:
		n.stats.sends.Add(1)
		f := t.outbox.bind()
		t.kind, t.buf = kindIsend, f.buf
		n.ring.Emit(trace.EvSendPost, int64(t.peer), int64(f.records))
		t.req = n.isend(t)
		n.activate(t, clk)
	case kindCollective:
		// Started, not polled: it completes in the ACTIVE poll, after
		// this sweep's listener step (see progress).
		n.stats.collectives.Add(1)
		t.coll.Start(n.comm)
		n.traceState(n.ring, t, StateActive)
		n.watch(t, clk)
	case kindCancel:
		// Find the ACTIVE operation carrying the target request and try
		// to cancel the underlying MPI operation (only unmatched
		// receives can be; eager sends are already in flight). The
		// cancelled operation's own request completes via the normal
		// polling path with Cancelled set.
		target := t.cancelTarget
		cancelled := false
		for _, at := range n.active {
			if at.request == target && at.kind != kindCollective {
				cancelled = at.req.Cancel()
				break
			}
		}
		n.completeLocal(t, &Status{Cancelled: cancelled})
	case kindShutdown:
		n.completeLocal(t, &Status{})
	default:
		panic(fmt.Sprintf("hcmpi: dispatch of %v task", t.kind))
	}
}

// completeP2P publishes a point-to-point (or one-sided) completion. The
// MPI request handle is recycled once its payload (a slice that
// survives the handle) has been extracted.
func (n *Node) completeP2P(t *commTask, st *mpi.Status) {
	var hst *Status
	if t.request != nil { // a flush has nobody to tell
		hst = &Status{Source: st.Source, Tag: st.Tag, Bytes: st.Bytes, Cancelled: st.Cancelled, Err: st.Err}
		if t.takeAll || t.req.Payload() != nil {
			hst.Payload = t.req.Payload()
		}
	}
	if t.kind == kindIsend || t.kind == kindIrecv {
		// Point-to-point handles are held by the sweep alone and can be
		// recycled. One-sided handles are also tracked by their window's
		// epoch list (mpi.Win.Fence waits on them later), so they must
		// stay live until the epoch closes — they fall to the GC instead.
		t.req.Free()
	}
	n.completeLocal(t, hst)
}

// completeLocal moves a task to COMPLETED, puts its status into the
// request DDF (releasing awaiting DDTs through ReleaseTask), and recycles
// the structure to AVAILABLE.
func (n *Node) completeLocal(t *commTask, st *Status) {
	if invariant.Enabled {
		s := t.State()
		invariant.Assertf(s == StatePrescribed || s == StateActive,
			"hcmpi: completing a %v task (double completion or completion after retire)", s)
	}
	n.traceState(n.ring, t, StateCompleted)
	req := t.request
	n.retire(t)
	if req != nil {
		if err := req.ddf.PutVia(n, st); err != nil {
			panic("hcmpi: request completed twice: " + err.Error())
		}
	}
}
