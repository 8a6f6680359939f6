// Package distsched is the runtime's distributed load-balancing plane:
// a generic scheduler that lets any hcmpi program declare migratable
// tasks — a serializable closure descriptor plus payload — which idle
// ranks steal over the existing MPI transports.
//
// The design extends the paper's intra-node work-first scheduler across
// ranks. Each rank runs one driver per computation worker; drivers
// execute frames from per-driver deques, steal-half from intra-node
// peers (deque.StealBatch semantics), and — only when the whole rank
// is dry — issue a remote steal through the communication worker. A
// thief that finds a rank short (a remote steal request that leaves
// less than a full grant queued, or an idle driver beside a busy one),
// or a driver that runs its own deque dry on a multi-rank job, raises
// that rank's demand word (TaskCtx.Hungry), and handlers holding
// private work spill some of it only then (lazy task creation). A
// denied thief asks again denyWait later. All protocol traffic (steal
// request/grant/deny, the termination token, and the shutdown
// broadcast) is serviced by hcmpi listener tasks on the communication
// worker's adaptive-parking poll loop; there is no second progress
// thread. Global quiescence is proven by a Safra-style token ring (see
// termination.go) exposed as Barrier.
//
// Fail-stop: every protocol send is tracked, and a terminal error —
// mpi.ErrRankFailed from a dead peer, or a timeout/drop surfaced by the
// communication worker — aborts the job on every surviving rank, whose
// Run returns an error satisfying errors.Is(err, mpi.ErrRankFailed).
// Frames are never executed twice: a migrated frame exists on exactly
// one rank (removed from the victim before the grant is sent), and on
// abort undispatched frames are counted as dropped rather than silently
// lost.
package distsched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hcmpi/internal/deque"
	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
	"hcmpi/internal/trace"
)

// Handler executes one migratable task. The payload is valid only for
// the duration of the call (spawned and migrated payloads live in
// pooled buffers that are recycled when the handler returns); a handler
// that needs the bytes afterwards must copy them.
type Handler func(tc *TaskCtx, payload []byte)

// Remote-steal constants (DESIGN.md §13).
const (
	// maxBatch caps the frames moved by one steal grant: the victim
	// yields min(maxBatch, half its queued frames), mirroring the local
	// deque.StealBatch steal-half rule.
	maxBatch = 16
	// stealTimeout re-arms an unanswered remote steal: after this long
	// without a grant or deny the thief probes a fresh victim (the
	// original reply, if it ever arrives, is still honored).
	stealTimeout = 2 * time.Millisecond
	// denyWait holds a denied thief's next request back, so that it
	// arrives after the victim's handlers have answered the demand word
	// the deny raised; retrying at once asked again and again before
	// the victim's driver had run a slice (DESIGN.md §13).
	denyWait = 20 * time.Microsecond
)

// Scheduler is one rank's view of the distributed load-balancing
// plane. Create with New before Node.Main, register every migratable
// task kind (identical order on all ranks — the kind index is the wire
// descriptor), seed work with Submit, then drive with Run inside the
// node's main task. One Scheduler per Node: the protocol listeners
// live until the node closes.
type Scheduler struct {
	node *hcmpi.Node
	// frames is the rank's store of retired frames, each keeping its
	// payload buffer. Grants draw from it and exported frames return to
	// it; drivers recycle through their own lists and trade with it a
	// batch at a time (TaskCtx.getFrame, TaskCtx.retire), because a
	// frame is often spawned by one driver and run by another.
	freeMu sync.Mutex
	frames *deque.FreeList[frame]

	kinds     []Handler
	kindIndex map[string]uint16
	running   atomic.Bool

	local    []*deque.Deque[frame] // per-driver deques, remote-stealable
	incoming *deque.Stack[frame]   // migrated frames parked by the listener
	inject   *deque.Stack[frame]   // Submit'ed seed frames

	outstanding atomic.Bool // a remote steal is in flight
	stealSince  atomic.Int64
	done        atomic.Bool

	// hungry is the rank's demand word: set when a thief found this rank
	// short (a steal request that left less than a full grant queued,
	// or a dry driver on a rank with a peer driver to feed it) or a
	// driver took its deque's last frame on a multi-rank job, cleared
	// by Spawn. Handlers read it through TaskCtx.Hungry to make work
	// migratable only when someone is waiting for it.
	hungry atomic.Bool

	bar *Barrier

	alive     []atomic.Bool
	tokenOnce sync.Mutex // serializes Advance side effects

	pendMu  sync.Mutex
	pending []pendingSend

	errMu sync.Mutex
	err   error

	searchNanos atomic.Int64

	ring *trace.Ring
	ctr  counters

	// taken, when a test sets it, is called by a driver holding a frame
	// it has taken but not yet run — the window the census must cover.
	taken func(wid int)
	// noSteal, when a test sets it, keeps this rank from issuing remote
	// steals.
	noSteal bool
}

type pendingSend struct {
	req  *hcmpi.Request
	peer int
}

// counters are the dist_* metrics on the node's unified registry.
type counters struct {
	reqSent, reqRecv           *trace.Counter
	grantsIn, grantsOut        *trace.Counter
	deniesIn, deniesOut        *trace.Counter
	migrated, exported         *trace.Counter
	spawned, executed, dropped *trace.Counter
	localSteals                *trace.Counter
	termRounds                 *trace.Counter
	rankFailures               *trace.Counter
}

// New creates the scheduler for a node and installs its protocol
// listeners on the communication worker. Call before Node.Main (or
// from the main task; listener installation is synchronous either way).
func New(n *hcmpi.Node) *Scheduler {
	s := &Scheduler{
		node:      n,
		frames:    deque.NewFreeList[frame](frameListCap),
		kindIndex: map[string]uint16{},
		incoming:  deque.NewStack[frame](),
		inject:    deque.NewStack[frame](),
		bar:       NewBarrier(n.Rank(), n.Size()),
		alive:     make([]atomic.Bool, n.Size()),
	}
	s.local = make([]*deque.Deque[frame], n.Workers())
	for i := range s.local {
		s.local[i] = deque.NewDeque[frame]()
	}
	for i := range s.alive {
		s.alive[i].Store(true)
	}
	seedFrames(s.frames)
	s.ring = n.Tracer().Register(n.Rank(), n.Workers()+2, "distsched", trace.TrackDist)
	m := n.Metrics()
	s.ctr = counters{
		reqSent:      m.Counter("dist_steal_req_sent"),
		reqRecv:      m.Counter("dist_steal_req_recv"),
		grantsIn:     m.Counter("dist_steal_grants_in"),
		grantsOut:    m.Counter("dist_steal_grants_out"),
		deniesIn:     m.Counter("dist_steal_denies_in"),
		deniesOut:    m.Counter("dist_steal_denies_out"),
		migrated:     m.Counter("dist_steal_tasks_migrated"),
		exported:     m.Counter("dist_steal_tasks_exported"),
		spawned:      m.Counter("dist_tasks_spawned"),
		executed:     m.Counter("dist_tasks_executed"),
		dropped:      m.Counter("dist_tasks_dropped"),
		localSteals:  m.Counter("dist_local_steals"),
		termRounds:   m.Counter("dist_term_rounds"),
		rankFailures: m.Counter("dist_rank_failures"),
	}
	n.Listen(tagStealReq, s.onStealReq)
	n.Listen(tagStealGrant, s.onGrant)
	n.Listen(tagStealDeny, s.onDeny)
	n.Listen(tagToken, s.onToken)
	n.Listen(tagDone, s.onDone)
	return s
}

// Node returns the scheduler's HCMPI node.
func (s *Scheduler) Node() *hcmpi.Node { return s.node }

// Register declares a migratable task kind. Every rank must register
// the same kinds in the same order before Run — the registration index
// is the frame's wire descriptor. Registering after Run panics.
func (s *Scheduler) Register(kind string, h Handler) {
	if s.running.Load() {
		panic("distsched: Register after Run")
	}
	if _, dup := s.kindIndex[kind]; dup {
		panic("distsched: duplicate kind " + kind)
	}
	s.kindIndex[kind] = uint16(len(s.kinds))
	s.kinds = append(s.kinds, h)
}

// Submit seeds a task before Run (typically on the rank that owns the
// root of the computation). The payload stays caller-owned — the
// scheduler never recycles it — and must not be mutated until the job
// completes.
func (s *Scheduler) Submit(kind string, payload []byte) {
	idx := s.kindOf(kind, "Submit")
	s.ctr.spawned.Add(1)
	s.inject.Push(&frame{kind: idx, payload: payload})
}

// kindOf resolves a registered kind to its wire index; op names the
// caller in the panic an unregistered kind is answered with.
func (s *Scheduler) kindOf(kind, op string) uint16 {
	idx, ok := s.kindIndex[kind]
	if !ok {
		panic("distsched: " + op + " of unregistered kind " + kind)
	}
	return idx
}

// TaskCtx is a handler's execution context: one per driver, so nothing
// in it is shared between workers.
type TaskCtx struct {
	s    *Scheduler
	wid  int
	rng  *rand.Rand
	free *deque.FreeList[frame] // retired frames, buffers attached; two batches at most
	// spare is the frame whose buffer the last Buffer call handed out:
	// the next Spawn publishes it.
	spare *frame
}

func (s *Scheduler) newTaskCtx(wid int) *TaskCtx {
	return &TaskCtx{s: s, wid: wid,
		rng:  rand.New(rand.NewSource(int64(s.node.Rank()*1009+wid)*6151 + 17)),
		free: deque.NewFreeList[frame](2 * frameBatch)}
}

// Rank returns the executing rank.
func (tc *TaskCtx) Rank() int { return tc.s.node.Rank() }

// Worker returns the executing driver's worker id, a stable index in
// [0, Node.Workers()) — handlers key worker-local state off it.
func (tc *TaskCtx) Worker() int { return tc.wid }

// Buffer returns an n-byte payload buffer, to be filled and handed to
// Spawn; the scheduler takes it back when the spawned frame has run (or
// has been copied into a steal grant). It is a retired frame's buffer,
// and the next Spawn publishes that frame, so a handler that spills
// work in steady state allocates nothing.
//
//hclint:hotpath
func (tc *TaskCtx) Buffer(n int) []byte {
	f := tc.getFrame()
	f.payload = sized(f.payload, n)
	tc.spare = f
	return f.payload
}

// Hungry reports whether this rank has been found, or has run, short
// of queued frames since the last Spawn: a handler holding private work
// that could be split should Spawn some of it. One atomic load, cheap
// enough to check once per slice of work.
func (tc *TaskCtx) Hungry() bool { return tc.s.hungry.Load() }

// Spawn makes a new migratable task visible to local peers and remote
// thieves. The payload — from Buffer, or any slice the caller gives up
// whole — is owned by the scheduler from this point on: it is recycled
// once the frame's handler returns, so the caller must keep no
// reference to it or to its backing array. Spawning answers the demand
// word: it clears Hungry.
//
//hclint:hotpath
func (tc *TaskCtx) Spawn(kind string, payload []byte) {
	s := tc.s
	idx := s.kindOf(kind, "Spawn")
	f := tc.spare
	if f == nil {
		f = tc.getFrame()
	}
	tc.spare = nil
	f.kind, f.payload, f.owned = idx, payload, true
	// Counted before it is published: quiescent() may never see a frame
	// it cannot account for.
	s.ctr.spawned.Add(1)
	s.local[tc.wid].Push(f)
	if s.hungry.Load() {
		s.hungry.Store(false)
	}
}

// Run executes until global termination (every rank quiescent, proven
// by the token ring) or job abort, and returns nil or the abort error.
// All ranks must call it (SPMD), from inside Node.Main's task context.
func (s *Scheduler) Run(ctx *hc.Ctx) error {
	s.running.Store(true)
	nw := len(s.local)
	ctx.Finish(func(ctx *hc.Ctx) {
		for wid := 0; wid < nw; wid++ {
			wid := wid
			ctx.AsyncAt(wid, func(*hc.Ctx) { s.drive(wid) })
		}
	})
	s.drainAbandoned()
	return s.Err()
}

// Err returns the job's abort error, if any (nil after clean
// termination). After a peer died it satisfies
// errors.Is(err, mpi.ErrRankFailed).
func (s *Scheduler) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

func (s *Scheduler) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// Stats is a point-in-time copy of the scheduler's counters.
type Stats struct {
	Spawned, Executed, Dropped   int64
	StealReqsSent, StealReqsRecv int64
	GrantsIn, GrantsOut          int64
	DeniesIn, DeniesOut          int64
	MigratedIn, MigratedOut      int64
	LocalSteals                  int64
	TermRounds                   int64
	RankFailures                 int64
	Search                       time.Duration // drivers' cumulative idle-search time
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Spawned:       s.ctr.spawned.Load(),
		Executed:      s.ctr.executed.Load(),
		Dropped:       s.ctr.dropped.Load(),
		StealReqsSent: s.ctr.reqSent.Load(),
		StealReqsRecv: s.ctr.reqRecv.Load(),
		GrantsIn:      s.ctr.grantsIn.Load(),
		GrantsOut:     s.ctr.grantsOut.Load(),
		DeniesIn:      s.ctr.deniesIn.Load(),
		DeniesOut:     s.ctr.deniesOut.Load(),
		MigratedIn:    s.ctr.migrated.Load(),
		MigratedOut:   s.ctr.exported.Load(),
		LocalSteals:   s.ctr.localSteals.Load(),
		TermRounds:    s.ctr.termRounds.Load(),
		RankFailures:  s.ctr.rankFailures.Load(),
		Search:        time.Duration(s.searchNanos.Load()),
	}
}

// --- driver loops (computation workers) ---

// drive is one worker's scheduling loop: run what take finds, and when
// the rank is dry go searching.
func (s *Scheduler) drive(wid int) {
	tc := s.newTaskCtx(wid)
	for !s.done.Load() {
		if f, ok := s.take(tc); ok {
			s.exec(tc, f)
			continue
		}
		s.search(tc)
	}
}

// search is the idle path: remote steal, protocol-failure sweep,
// termination token, back off, look again — until take finds a frame
// (which it runs) or the job is done. The whole stay is one interval of
// search time: the clock is read on the way in and on the way out, not
// per round.
func (s *Scheduler) search(tc *TaskCtx) {
	t0 := time.Now()
	for rounds := 1; !s.done.Load(); rounds++ {
		if s.node.Size() == 1 {
			if s.quiescent() {
				s.done.Store(true)
			}
		} else {
			s.sweepPending()
			s.maybeSteal(tc.rng)
			s.tryToken()
		}
		if len(s.local) > 1 {
			s.setHungry()
		}
		// Yield while a grant or a peer's spill may land any microsecond,
		// then sleep once the rank looks durably dry. The sleep asks for
		// 20µs and gets the kernel's timer tick (≈1.1ms here); DESIGN.md
		// §13 has the measurement that chose the pair.
		if rounds < 256 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
		if f, ok := s.take(tc); ok {
			s.searchNanos.Add(int64(time.Since(t0)))
			s.exec(tc, f)
			return
		}
	}
	s.searchNanos.Add(int64(time.Since(t0)))
}

// setHungry raises the demand word. It stores only when the word is
// clear, so idle drivers polling it do not keep invalidating the cache
// line of the busy driver that reads it.
func (s *Scheduler) setHungry() {
	if !s.hungry.Load() {
		s.hungry.Store(true)
	}
}

// take finds the driver's next frame: its own deque, migrated work, the
// seed queue, then steal-half from an intra-node peer. A driver that
// takes its deque's last frame on a rank with peers to feed raises the
// demand word, so the work it is about to run refills the deque before
// a thief finds it empty.
func (s *Scheduler) take(tc *TaskCtx) (*frame, bool) {
	f, ok := s.local[tc.wid].Pop()
	if !ok {
		f, ok = s.incoming.Pop()
	}
	if !ok {
		f, ok = s.inject.Pop()
	}
	if !ok {
		return s.stealLocal(tc.wid, tc.rng)
	}
	if s.node.Size() > 1 && s.local[tc.wid].Size() == 0 {
		s.setHungry()
	}
	return f, true
}

// exec runs one frame and retires it. A frame made by Spawn or by a
// steal grant is the scheduler's, payload and struct alike: both go to
// the driver's free list, the buffer kept on the struct. A Submit seed
// is the caller's payload in a one-off struct, and is left alone.
// executed is bumped only after the handler has returned and its spawns
// are counted, so a frame in a driver's hand is never invisible to
// quiescent().
//
//hclint:hotpath
func (s *Scheduler) exec(tc *TaskCtx, f *frame) {
	if s.taken != nil {
		s.taken(tc.wid)
	}
	s.kinds[f.kind](tc, f.payload)
	s.ctr.executed.Add(1)
	if f.owned {
		tc.retire(f)
	}
}

// frameBatch is how many frames a driver moves to or from the rank's
// store at once; a driver keeps at most two batches. A driver that runs
// what another spawns fills its list, and one that spawns what another
// runs empties it, so they trade through the store with one lock per
// batch. Small batches strand few frames in a list: at 1 rank × 2
// workers a frame cost 0.06–0.11 allocations in uts.TestSpillAllocFree
// with batches of 128, 0.004–0.02 with batches of 16 (both measured
// before seedFrames).
const frameBatch = 16

// getFrame takes a retired frame from the driver's list, refilling the
// list from the rank's store when it is empty, or makes one.
//
//hclint:hotpath
func (tc *TaskCtx) getFrame() *frame {
	if f, ok := tc.free.Get(); ok {
		return f
	}
	s := tc.s
	s.freeMu.Lock()
	for i := 0; i < frameBatch; i++ {
		f, ok := s.frames.Get()
		if !ok {
			break
		}
		tc.free.Put(f)
	}
	s.freeMu.Unlock()
	if f, ok := tc.free.Get(); ok {
		return f
	}
	return newFrame()
}

// retire keeps a frame the driver has run, buffer attached, moving a
// batch to the rank's store when the driver's list is full.
//
//hclint:hotpath
func (tc *TaskCtx) retire(f *frame) {
	keepBuffer(f)
	if tc.free.Len() == 2*frameBatch {
		s := tc.s
		s.freeMu.Lock()
		for i := 0; i < frameBatch; i++ {
			g, _ := tc.free.Get()
			s.frames.Put(g)
		}
		s.freeMu.Unlock()
	}
	tc.free.Put(f)
}

// getFrame takes a frame from the rank's store, or makes one: the
// communication worker's path, for the frames of a grant.
func (s *Scheduler) getFrame() *frame {
	s.freeMu.Lock()
	f, ok := s.frames.Get()
	s.freeMu.Unlock()
	if !ok {
		f = newFrame()
	}
	return f
}

// retire returns an exported frame, buffer attached, to the rank's
// store.
func (s *Scheduler) retire(f *frame) {
	keepBuffer(f)
	s.freeMu.Lock()
	s.frames.Put(f)
	s.freeMu.Unlock()
}

// stealLocal moves half a peer driver's deque into ours (StealBatch)
// and returns the first stolen frame.
func (s *Scheduler) stealLocal(wid int, rng *rand.Rand) (*frame, bool) {
	nw := len(s.local)
	if nw < 2 {
		return nil, false
	}
	start := rng.Intn(nw)
	for i := 0; i < nw; i++ {
		v := (start + i) % nw
		if v == wid {
			continue
		}
		if f, _, ok := s.local[v].StealBatch(s.local[wid]); ok {
			s.ctr.localSteals.Add(1)
			return f, true
		}
	}
	return nil, false
}

// maybeSteal issues (or re-arms) the rank's single outstanding remote
// steal. One steal in flight per rank matches the paper's UTS port;
// re-arming after stealTimeout keeps the thief live when a victim's
// reply is slow or lost — a late reply is still honored, and duplicate
// grants are impossible because frames leave the victim exactly once.
// A deny uses the same re-arm, denyWait after it arrived (onDeny).
func (s *Scheduler) maybeSteal(rng *rand.Rand) {
	now := time.Now().UnixNano()
	if s.outstanding.CompareAndSwap(false, true) {
		s.stealSince.Store(now)
		s.issueSteal(rng)
		return
	}
	since := s.stealSince.Load()
	if now-since > int64(stealTimeout) && s.stealSince.CompareAndSwap(since, now) {
		s.issueSteal(rng)
	}
}

func (s *Scheduler) issueSteal(rng *rand.Rand) {
	v := -1
	if !s.noSteal {
		v = randomVictim(s.node.Rank(), s.node.Size(), rng, s.isAlive)
	}
	if v < 0 {
		s.outstanding.Store(false)
		return
	}
	s.ctr.reqSent.Add(1)
	s.ring.Emit(trace.EvDistStealReq, int64(v), 0)
	s.track(s.node.SendReserved(nil, v, tagStealReq), v)
}

func (s *Scheduler) isAlive(r int) bool {
	return r >= 0 && r < len(s.alive) && s.alive[r].Load()
}

// track records a protocol send so drivers can sweep it for terminal
// errors (fail-stop detection rides on the protocol's own traffic).
func (s *Scheduler) track(req *hcmpi.Request, peer int) {
	s.pendMu.Lock()
	s.pending = append(s.pending, pendingSend{req: req, peer: peer})
	s.pendMu.Unlock()
}

// sweepPending tests tracked protocol sends; a terminal error condemns
// the peer and aborts the job.
func (s *Scheduler) sweepPending() {
	var failed []pendingSend
	s.pendMu.Lock()
	live := s.pending[:0]
	for _, p := range s.pending {
		st, ok := p.req.Test()
		if !ok {
			live = append(live, p)
			continue
		}
		if st.Err != nil {
			failed = append(failed, p)
		}
	}
	s.pending = live
	s.pendMu.Unlock()
	for _, p := range failed {
		st, _ := p.req.Test()
		s.fail(p.peer, st.Err)
	}
}

// fail implements fail-stop: first observer of a dead (or unreachable)
// peer marks it, poisons the job locally, and broadcasts the abort so
// every surviving rank resolves promptly instead of waiting out its own
// detection. Work already migrated to the dead rank is lost with it —
// by design; the job-level error is the accounting.
func (s *Scheduler) fail(peer int, cause error) {
	if peer < 0 || peer >= len(s.alive) || !s.alive[peer].CompareAndSwap(true, false) {
		return
	}
	s.ctr.rankFailures.Add(1)
	s.bar.RankFailed(peer)
	s.ring.Emit(trace.EvDistDone, int64(peer), 1)
	s.setErr(fmt.Errorf("distsched: rank %d unreachable (%v): %w", peer, cause, mpi.ErrRankFailed))
	for r := 0; r < s.node.Size(); r++ {
		if r != s.node.Rank() && s.isAlive(r) {
			// Best effort, untracked: the recipients are condemned anyway.
			s.node.SendReserved(encodeDone(doneFailed, peer), r, tagDone)
		}
	}
	s.done.Store(true)
}

// --- quiescence & termination ---

// quiescent reports whether this rank holds no frame anywhere — queued,
// in a driver's hand, running, or mid-export — from the conservation
// counters alone: every frame is counted into spawned or migrated before
// it is published and into executed or exported only after it is
// retired (exported only after the Safra WorkSent), so retired ==
// created means nothing is outstanding. The retired side is read first:
// all four counters only grow, so a frame created between the two reads
// makes the sums differ rather than agree. (dropped is the fifth term of
// the invariant; it moves only in drainAbandoned, after the drivers.)
// An outstanding remote steal does NOT block quiescence — idle ranks
// steal continuously, and the Safra deficit covers in-flight work.
func (s *Scheduler) quiescent() bool {
	retired := s.ctr.executed.Load() + s.ctr.exported.Load()
	created := s.ctr.spawned.Load() + s.ctr.migrated.Load()
	return retired == created
}

// tryToken drives the termination ring from an idle driver.
func (s *Scheduler) tryToken() {
	s.tokenOnce.Lock()
	defer s.tokenOnce.Unlock()
	if s.done.Load() {
		return
	}
	act, tok, next := s.bar.Advance(s.quiescent())
	switch act {
	case ActionForward:
		if s.node.Rank() == 0 {
			s.ctr.termRounds.Add(1)
		}
		s.ring.Emit(trace.EvDistToken, int64(next), 0)
		s.track(s.node.SendReserved(tok, next, tagToken), next)
	case ActionTerminate:
		s.ring.Emit(trace.EvDistDone, 0, 0)
		for r := 0; r < s.node.Size(); r++ {
			if r != s.node.Rank() && s.isAlive(r) {
				s.node.SendReserved(encodeDone(doneClean, -1), r, tagDone)
			}
		}
		s.done.Store(true)
	}
}

// drainAbandoned counts (and recycles) frames left queued after an
// abort, preserving the per-rank conservation invariant
// spawned + migratedIn == executed + migratedOut + dropped.
// Drivers have exited, so this goroutine is the deques' sole owner.
func (s *Scheduler) drainAbandoned() {
	n := int64(0)
	take := func(*frame) { n++ }
	for _, d := range s.local {
		for {
			f, ok := d.Pop()
			if !ok {
				break
			}
			take(f)
		}
	}
	for {
		f, ok := s.incoming.Pop()
		if !ok {
			break
		}
		take(f)
	}
	for {
		f, ok := s.inject.Pop()
		if !ok {
			break
		}
		take(f)
	}
	if n > 0 {
		s.ctr.dropped.Add(n)
	}
}

// --- listener callbacks (communication worker) ---

// onStealReq answers a remote thief: steal-half of this rank's queued
// frames (capped at maxBatch), or a deny. Either way, when less than a
// full grant is left queued it raises the demand word. Harvested frames
// stay counted as outstanding until exported is bumped, and that
// happens only after the Safra WorkSent — so no token can slip between
// "frames removed from the deques" and "deficit incremented" and
// terminate early. Like every listener callback it runs ON the
// communication worker, so it must never park.
//
//hclint:nonblocking
func (s *Scheduler) onStealReq(src int, _ []byte) {
	s.ctr.reqRecv.Add(1)
	fs, rest := s.harvest()
	if rest < maxBatch {
		// The next thief would find less than a full grant, or nothing:
		// ask this rank's busy handlers to spill. A denied thief
		// retries, and its next request finds what they spawned.
		s.setHungry()
	}
	if len(fs) == 0 {
		s.ctr.deniesOut.Add(1)
		s.ring.Emit(trace.EvDistDeny, int64(src), int64(rest))
		s.track(s.node.SendReserved(encodeDeny(rest), src, tagStealDeny), src)
		return
	}
	// Safra: count the work send BEFORE it leaves, and before exported
	// lets quiescent() see the frames as gone.
	s.bar.WorkSent()
	s.ctr.exported.Add(int64(len(fs)))
	s.ctr.grantsOut.Add(1)
	s.ring.Emit(trace.EvDistStealServe, int64(src), int64(len(fs)))
	buf := encodeFrames(fs)
	for _, f := range fs {
		if f.owned {
			s.retire(f)
		}
	}
	s.track(s.node.SendReserved(buf, src, tagStealGrant), src)
}

// harvest removes up to min(maxBatch, ceil(total/2)) frames for export:
// local deques first (oldest frames — the biggest subtrees in
// divide-and-conquer workloads), then parked migrated/seed work.
// Returns the batch and the load left behind.
func (s *Scheduler) harvest() ([]*frame, int) {
	total := 0
	for _, d := range s.local {
		total += d.Size()
	}
	total += s.incoming.Size() + s.inject.Size()
	if total == 0 || s.done.Load() {
		return nil, total
	}
	want := (total + 1) / 2
	if want > maxBatch {
		want = maxBatch
	}
	fs := make([]*frame, 0, want)
	for _, d := range s.local {
		for len(fs) < want {
			f, ok := d.Steal()
			if !ok {
				break
			}
			fs = append(fs, f)
		}
	}
	for len(fs) < want {
		f, ok := s.incoming.Pop()
		if !ok {
			break
		}
		fs = append(fs, f)
	}
	for len(fs) < want {
		f, ok := s.inject.Pop()
		if !ok {
			break
		}
		fs = append(fs, f)
	}
	return fs, total - len(fs)
}

// onGrant parks migrated frames for the drivers. Safra receipt rule
// first — blacken and decrement before any frame becomes executable.
//
//hclint:nonblocking
func (s *Scheduler) onGrant(src int, payload []byte) {
	s.bar.WorkReceived()
	fs, err := decodeFrames(payload, s.getFrame)
	if err != nil {
		// A malformed grant means a protocol bug, not a recoverable
		// condition; poison the job loudly rather than dropping work.
		s.setErr(err)
		s.done.Store(true)
		return
	}
	// Counted before they are published (see quiescent).
	s.ctr.migrated.Add(int64(len(fs)))
	for _, f := range fs {
		s.incoming.Push(f)
	}
	s.ctr.grantsIn.Add(1)
	s.ring.Emit(trace.EvDistMigrate, int64(src), int64(len(fs)))
	s.outstanding.Store(false)
}

// onDeny records a refused steal and frees the steal slot denyWait
// from now: it back-dates the slot's clock so that maybeSteal's re-arm
// fires then. The victim's reported load goes onto the trace timeline.
//
//hclint:nonblocking
func (s *Scheduler) onDeny(src int, payload []byte) {
	s.ctr.deniesIn.Add(1)
	s.ring.Emit(trace.EvDistDeny, int64(src), int64(decodeDeny(payload)))
	s.stealSince.Store(time.Now().UnixNano() - int64(stealTimeout-denyWait))
}

// onToken feeds a Safra termination token to the barrier bookkeeping.
//
//hclint:nonblocking
func (s *Scheduler) onToken(src int, payload []byte) {
	if len(payload) < 9 {
		return
	}
	color, q := DecodeToken(payload)
	s.ring.Emit(trace.EvDistToken, int64(src), int64(color))
	s.bar.TokenArrived(color, q)
}

// onDone marks global termination (clean or poisoned by a rank failure).
//
//hclint:nonblocking
func (s *Scheduler) onDone(_ int, payload []byte) {
	status, failedRank := decodeDone(payload)
	if status == doneFailed {
		s.ctr.rankFailures.Add(1)
		if failedRank >= 0 && failedRank < len(s.alive) {
			s.alive[failedRank].Store(false)
			s.bar.RankFailed(failedRank)
		}
		s.setErr(fmt.Errorf("distsched: rank %d reported failed: %w", failedRank, mpi.ErrRankFailed))
		s.ring.Emit(trace.EvDistDone, int64(failedRank), 1)
	} else {
		s.ring.Emit(trace.EvDistDone, 0, 0)
	}
	s.done.Store(true)
}
