// Package hc implements the Habanero-C intra-node runtime the paper
// builds HCMPI on: a pool of computation workers with Chase–Lev
// work-stealing deques, async/finish structured task parallelism, and
// data-driven tasks (DDTs) synchronizing through data-driven futures
// (DDFs).
//
// Tasks receive a *Ctx, the moral equivalent of Habanero-C's implicit
// current-worker/current-finish state; async spawns a child task into the
// current worker's deque and finish joins every task transitively spawned
// in its scope. The join is help-first: a worker blocked at the end of a
// finish executes other tasks (its own deque first, then steals) instead
// of idling, and parks only when the whole runtime has no visible work.
package hc

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hcmpi/internal/deque"
	"hcmpi/internal/trace"
)

// Task is one schedulable unit: a closure plus the finish scope it
// belongs to. The execution context is embedded in the frame so that
// running a task allocates nothing; frames spawned through a worker's
// frame pool (pooled == true) are recycled onto the running worker's
// free list after fn returns. A *Ctx is therefore only valid while its
// task is executing — retaining one past the task's return was always
// meaningless (the worker association dies with the task) and is now
// also unsafe.
type Task struct {
	fn     func(*Ctx)
	finish *Finish
	ctx    Ctx
	// pooled marks frames drawn from a worker frame pool. Frames built
	// by clients (NewTask, Submit) stay unpooled and fall back to the
	// GC: the runtime cannot know whether the client retains them.
	pooled bool
}

// NewTask builds an unpooled task bound to a finish scope, for Submit
// from a goroutine outside the pool.
func NewTask(fn func(*Ctx), f *Finish) Task { return Task{fn: fn, finish: f} }

// Runtime is one node's worker pool.
type Runtime struct {
	workers  []*worker
	inject   *deque.Stack[Task]   // tasks from non-worker goroutines
	stealSet []*deque.Deque[Task] // deques visible to thieves (fixed at New)

	idleMu   sync.Mutex
	idleCond *sync.Cond
	sleepers atomic.Int32
	done     atomic.Bool

	// wakeSeq is the wake ticket counter: every Wake bumps it, and idle
	// workers re-arm their spin phase when they observe a new ticket, so
	// freshly published work is picked up without a park/unpark round
	// trip through idleCond.
	wakeSeq atomic.Uint64

	// helpers recycles the detached worker contexts that stand-ins and
	// AsyncBlocking run on (deque + RNG + frame pool are worth keeping).
	helpers *deque.Stack[worker]

	// idleHook, when set, is what a pool worker does after a failed
	// work-finding sweep and before it backs off (SetIdleProgress).
	idleHook atomic.Pointer[IdleFunc]

	wg sync.WaitGroup

	// metrics is the runtime's counter registry (always on — one
	// uncontended atomic add per event); tracer, when non-nil, records
	// timeline events onto per-worker rings.
	metrics *trace.Metrics
	tracer  *trace.Tracer

	steals        *trace.Counter
	stealAttempts *trace.Counter
	stealFails    *trace.Counter
	stealBatched  *trace.Counter
	tasksRun      *trace.Counter
	tasksSpawned  *trace.Counter
	parks         *trace.Counter
	suspensions   *trace.Counter
	unburied      *trace.Counter
}

type worker struct {
	id    int
	rt    *Runtime
	deque *deque.Deque[Task]
	rng   *rand.Rand
	// ring is this worker's trace timeline; nil when tracing is
	// disabled (the nil check inside Emit is the whole disabled path).
	ring *trace.Ring
	// frames recycles task frames. Single-owner by construction: a
	// worker allocates spawn frames from its own list and the worker
	// that RUNS a task frees the frame into its own list, both on the
	// worker's goroutine — frames migrate between pools with steals.
	frames *deque.FreeList[Task]
	// idleCtx is the context the idle hook runs under: this worker, no
	// finish scope.
	idleCtx Ctx
	// unblock resumes the task suspended on this worker (Ctx.Block);
	// lazily created, one token at most.
	unblock chan struct{}
	// beats is a stand-in's sign of life: it counts the blocked tasks that
	// have resumed on this worker or, if it hosts a suspended task, on that
	// task's stand-in, and so on up. below is the worker whose suspended
	// task this one stands in for.
	beats atomic.Uint32
	below atomic.Pointer[worker]
}

// detached reports whether w is a helper context (a stand-in's or an
// AsyncBlocking task's) rather than a pool worker: it owns no deque
// thieves can see, so its spawns are injected into the pool instead.
func (w *worker) detached() bool { return w.id >= len(w.rt.workers) }

// Ctx is the execution context handed to every task: which worker is
// running it and which finish scope encloses it.
type Ctx struct {
	w      *worker
	finish *Finish
}

// Worker returns the executing worker's id, in [0, NumWorkers).
func (c *Ctx) Worker() int { return c.w.id }

// NumWorkers returns the size of the computation worker pool.
func (c *Ctx) NumWorkers() int { return len(c.w.rt.workers) }

// Runtime returns the runtime executing this task.
func (c *Ctx) Runtime() *Runtime { return c.w.rt }

// TraceRing returns the executing worker's trace timeline (nil when
// tracing is disabled), so runtime clients doing work on this worker's
// behalf can account it to the right track.
func (c *Ctx) TraceRing() *trace.Ring { return c.w.ring }

// CurrentFinish exposes the enclosing finish scope (used by runtime
// clients such as the HCMPI communication layer to attribute released
// continuations to the right scope).
func (c *Ctx) CurrentFinish() *Finish { return c.finish }

// New creates a runtime with n computation workers and starts them.
// extraStealSources are deques owned by non-worker components (HCMPI's
// communication worker) that computation workers may steal from — the
// paper's comm worker "pushes the continuation of the finish onto its
// deque to be stolen by computation workers".
func New(n int, extraStealSources ...*deque.Deque[Task]) *Runtime {
	return NewTraced(n, nil, 0, extraStealSources...)
}

// NewTraced is New with tracing: when tr is non-nil, each worker
// records its timeline onto a per-worker ring registered under process
// id pid (HCMPI uses the MPI rank). A nil tr costs nothing.
func NewTraced(n int, tr *trace.Tracer, pid int, extraStealSources ...*deque.Deque[Task]) *Runtime {
	if n <= 0 {
		panic(fmt.Sprintf("hc: worker count %d", n))
	}
	rt := &Runtime{inject: deque.NewStack[Task](), helpers: deque.NewStack[worker](), metrics: trace.NewMetrics(), tracer: tr}
	rt.steals = rt.metrics.Counter("hc_steals")
	rt.stealAttempts = rt.metrics.Counter("hc_steal_attempts")
	rt.stealFails = rt.metrics.Counter("hc_steal_fails")
	rt.stealBatched = rt.metrics.Counter("hc_steal_batch")
	rt.tasksRun = rt.metrics.Counter("hc_tasks_run")
	rt.tasksSpawned = rt.metrics.Counter("hc_tasks_spawned")
	rt.parks = rt.metrics.Counter("hc_parks")
	rt.suspensions = rt.metrics.Counter("hc_suspensions")
	rt.unburied = rt.metrics.Counter("hc_unburied")
	rt.idleCond = sync.NewCond(&rt.idleMu)
	for i := 0; i < n; i++ {
		w := &worker{id: i, rt: rt, deque: deque.NewDeque[Task](),
			rng:    rand.New(rand.NewSource(int64(i)*2654435761 + 1)),
			ring:   tr.Register(pid, i, fmt.Sprintf("worker %d", i), trace.TrackCompute),
			frames: deque.NewFreeList[Task](frameListCap)}
		w.idleCtx.w = w
		rt.workers = append(rt.workers, w)
		rt.stealSet = append(rt.stealSet, w.deque)
	}
	rt.stealSet = append(rt.stealSet, extraStealSources...)
	// Workers read their rings and the steal set unsynchronized, so both
	// are complete before the first one starts.
	for _, w := range rt.workers {
		rt.wg.Add(1)
		go w.loop()
	}
	return rt
}

// NumWorkers returns the pool size.
func (rt *Runtime) NumWorkers() int { return len(rt.workers) }

// Metrics exposes the runtime's counter registry: hc_steals,
// hc_steal_attempts, hc_steal_fails, hc_steal_batch, hc_tasks_run,
// hc_tasks_spawned, hc_parks, hc_suspensions and hc_unburied, plus
// whatever clients like the HCMPI communication worker register.
func (rt *Runtime) Metrics() *trace.Metrics { return rt.metrics }

// Tracer returns the tracer attached at construction (nil when
// tracing is disabled).
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tracer }

// Shutdown stops the workers after the currently running tasks finish.
// Pending queued tasks are discarded; callers should have joined their
// work (via Root/finish) first.
func (rt *Runtime) Shutdown() {
	rt.done.Store(true)
	rt.idleMu.Lock()
	rt.idleCond.Broadcast()
	rt.idleMu.Unlock()
	rt.wg.Wait()
}

// Root runs f as a top-level task inside an implicit finish and blocks
// the calling (non-worker) goroutine until f and everything it spawned
// have completed.
func (rt *Runtime) Root(f func(*Ctx)) {
	root := rt.NewFinish(nil)
	root.inc()
	done := make(chan struct{})
	root.onZero = func() { close(done) }
	rt.Submit(Task{finish: root, fn: f})
	<-done
}

// NewFinish creates a detached finish scope bound to this runtime.
func (rt *Runtime) NewFinish(parent *Finish) *Finish {
	return &Finish{rt: rt, parent: parent}
}

// Submit enqueues a task from a non-worker goroutine.
func (rt *Runtime) Submit(t Task) {
	rt.inject.Push(&t)
	rt.Wake()
}

// submitFrame re-injects an already-heap-allocated frame (preserving
// its pooled flag, so the eventual runner recycles it).
func (rt *Runtime) submitFrame(t *Task) {
	rt.inject.Push(t)
	rt.Wake()
}

// Wake rouses parked workers; clients pushing to external steal-visible
// deques must call it after each push. The ticket bump lands before the
// sleeper check: a worker that is still in its spin phase sees the new
// ticket and re-arms instead of parking.
func (rt *Runtime) Wake() {
	rt.wakeSeq.Add(1)
	if rt.sleepers.Load() > 0 {
		rt.idleMu.Lock()
		rt.idleCond.Broadcast()
		rt.idleMu.Unlock()
	}
}

// IdleFunc is an idle-progress hook: work a pool worker may do on the
// client's behalf when it has found nothing to run. ctx is bound to the
// idle worker (tasks released through it land on that worker's deque).
// It reports whether it made progress, i.e. whether a rescan for work is
// worthwhile before backing off further.
type IdleFunc func(ctx *Ctx) bool

// SetIdleProgress installs (or, with nil, removes) the idle-progress
// hook. HCMPI sets it so that idle computation workers drive the
// communication engine; plain hc users leave it unset.
//
// Workers call the hook in every idle round (idle), after the failed scan
// and between spin sweeps — and never while holding idleMu:
// the hook may release tasks, and releasing one calls Wake, which takes
// idleMu when a worker is parked.
func (rt *Runtime) SetIdleProgress(f IdleFunc) {
	if f == nil {
		rt.idleHook.Store(nil)
		return
	}
	rt.idleHook.Store(&f)
}

// idleProgress runs the idle hook, if any, on w. The caller must not hold
// idleMu.
func (w *worker) idleProgress() bool {
	if f := w.rt.idleHook.Load(); f != nil {
		return (*f)(&w.idleCtx)
	}
	return false
}

// Frame-pool and idle-protocol tuning (DESIGN.md §11; README
// "Performance tuning").
const (
	// frameListCap bounds each worker's recycled-frame list (~48 B per
	// frame, so about 12 KiB per worker at the cap).
	frameListCap = 256
	// spinSweeps is how many extra work-finding sweeps — with a Gosched
	// between them — an idle worker makes before parking on idleCond.
	spinSweeps = 4
	// buriedGrace is how long a released task stays behind a stand-in
	// whose current task completes no wait of its own, before it resumes
	// regardless (suspend). It only has to exceed an ordinary wait by a
	// comfortable margin — a same-host reply takes microseconds, a loaded
	// TCP round trip a millisecond or two; resuming early is always safe.
	buriedGrace = 5 * time.Millisecond
)

// newTask builds a spawn frame from the worker's pool. Owner-only (the
// calling goroutine must be w's).
//
//hclint:hotpath
func (w *worker) newTask(fn func(*Ctx), f *Finish) *Task {
	t, ok := w.frames.Get()
	if !ok {
		t = newFrame()
	}
	t.fn = fn
	t.finish = f
	return t
}

// newFrame is newTask's allocation slow path.
func newFrame() *Task { return &Task{pooled: true} }

// recycle clears a pooled frame and returns it to w's pool.
//
//hclint:hotpath
func (w *worker) recycle(t *Task) {
	t.fn = nil
	t.finish = nil
	t.ctx.w = nil
	t.ctx.finish = nil
	w.frames.Put(t)
}

// next finds runnable work for w: own deque, injected tasks, then
// steals.
func (w *worker) next() (*Task, bool) {
	if t, ok := w.deque.Pop(); ok {
		return t, true
	}
	if t, ok := w.rt.inject.Pop(); ok {
		return t, true
	}
	return w.stealOnce()
}

// stealOnce makes one sweep over the other deques from a random start.
// Worker deques and external sources are drained with StealBatch — one
// visit moves up to half the victim's tasks into w's own deque, so
// repeated sweeps are amortized (steal-half batching).
func (w *worker) stealOnce() (*Task, bool) {
	rt := w.rt
	rt.stealAttempts.Add(1)
	w.ring.Emit(trace.EvStealAttempt, 0, 0)
	n := len(rt.stealSet)
	if n <= 1 {
		w.stealMissed()
		return nil, false
	}
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := (start + i) % n
		d := rt.stealSet[v]
		if d == w.deque {
			continue
		}
		if t, moved, ok := d.StealBatch(w.deque); ok {
			if v >= len(rt.workers) {
				v = -1 // external steal source (e.g. the comm worker's deque)
			}
			w.stole(v, moved)
			return t, true
		}
	}
	w.stealMissed()
	return nil, false
}

// stole books a successful steal of moved tasks from victim (-1:
// external source). hc_steal_batch counts the tasks moved beyond the
// first — the extra transfer volume batching buys.
func (w *worker) stole(victim, moved int) {
	w.rt.steals.Add(1)
	if moved > 1 {
		w.rt.stealBatched.Add(int64(moved - 1))
	}
	w.ring.Emit(trace.EvStealSuccess, int64(victim), int64(moved))
}

// stealMissed books a sweep that found nothing.
func (w *worker) stealMissed() {
	w.rt.stealFails.Add(1)
	w.ring.Emit(trace.EvStealFail, 0, 0)
}

func (w *worker) run(t *Task) {
	w.rt.tasksRun.Add(1)
	w.ring.Emit(trace.EvTaskStart, 0, 0)
	t.ctx.w = w
	t.ctx.finish = t.finish
	t.fn(&t.ctx)
	w.ring.Emit(trace.EvTaskEnd, 0, 0)
	f := t.finish
	if t.pooled {
		// The frame (and the ctx inside it) dies here; f was read out
		// above so the scope can still be signalled.
		w.recycle(t)
	}
	if f != nil {
		f.dec()
	}
}

func (w *worker) loop() {
	defer w.rt.wg.Done()
	rt := w.rt
	for {
		seq := rt.wakeSeq.Load()
		t, ok := w.next()
		if !ok {
			if rt.done.Load() {
				return
			}
			t = w.idle(seq, nil, false)
		}
		if t != nil {
			w.run(t)
		}
	}
}

// idle is one round of the idle protocol, for a worker whose scan from
// wake ticket seq found nothing: the idle hook, spinSweeps more scans
// with a Gosched and the hook between them, then a park until the next
// Wake. It returns the task a spin scan found, or nil when the caller
// should re-check its condition and scan again.
//
// over, when non-nil, is the caller's condition: the park is skipped once
// it holds, and with watch the spin ends on it too. Only a blocked task
// watches: what it waits for is not a task on a deque, so no scan would
// find it. A join's spin stays blind to its count, so that a sibling's
// next child is run by the joiner rather than stolen away with its frame.
//
// Whatever makes over true, and every publisher of work, must call Wake
// (or be Shutdown): the park is skipped only on a new wake ticket. over
// is checked before idleMu is taken, never under it; the ticket covers
// the gap.
func (w *worker) idle(seq uint64, over func() bool, watch bool) *Task {
	rt := w.rt
	if w.idleProgress() {
		return nil
	}
	for i := 0; i < spinSweeps && !rt.done.Load(); i++ {
		runtime.Gosched()
		if watch && over() {
			return nil
		}
		if t, ok := w.next(); ok {
			return t
		}
		if w.idleProgress() {
			return nil
		}
	}
	if rt.wakeSeq.Load() != seq || over != nil && over() {
		return nil
	}
	rt.idleMu.Lock()
	rt.sleepers.Add(1)
	if rt.wakeSeq.Load() == seq && !rt.done.Load() {
		rt.parks.Inc()
		rt.idleCond.Wait()
	}
	rt.sleepers.Add(-1)
	rt.idleMu.Unlock()
	return nil
}

// Async spawns fn as a child task in the current finish scope. The child
// goes to the bottom of the current worker's deque (newest-first for the
// owner, oldest-first for thieves). The frame comes from the worker's
// pool, so the steady-state spawn allocates nothing.
//
//hclint:hotpath
func (c *Ctx) Async(fn func(*Ctx)) {
	f := c.finish
	if f != nil {
		f.inc()
	}
	w := c.w
	w.rt.tasksSpawned.Add(1)
	w.ring.Emit(trace.EvTaskSpawn, 0, 0)
	t := w.newTask(fn, f)
	if w.detached() {
		// Detached contexts own no steal-visible deque; inject instead.
		w.rt.submitFrame(t)
		return
	}
	w.deque.Push(t)
	w.rt.Wake()
}

// AsyncBlocking spawns fn on a dedicated goroutine (not a pool worker)
// under the current finish scope, with a detached context. Use it for
// tasks that legitimately block — e.g. tasks registered on phasers, which
// suspend at every next. In Habanero-C such tasks suspend on the worker;
// Go's goroutines give the same semantics without pinning a worker.
func (c *Ctx) AsyncBlocking(fn func(*Ctx)) {
	f := c.finish
	if f != nil {
		f.inc()
	}
	rt := c.w.rt
	rt.tasksSpawned.Add(1)
	c.w.ring.Emit(trace.EvTaskSpawn, 0, 0)
	go func() {
		dw := rt.getHelper()
		ctx := Ctx{w: dw, finish: f}
		fn(&ctx)
		if f != nil {
			f.dec()
		}
		rt.putHelper(dw)
	}()
}

// AsyncAt spawns fn preferring execution on worker wid. The pool is the
// paper's single-level place tree: the hint only selects the submission
// path; stealing may still move the task.
func (c *Ctx) AsyncAt(wid int, fn func(*Ctx)) {
	f := c.finish
	if f != nil {
		f.inc()
	}
	c.w.rt.tasksSpawned.Add(1)
	c.w.ring.Emit(trace.EvTaskSpawn, 0, 0)
	t := c.w.newTask(fn, f)
	if !c.w.detached() && (wid == c.w.id || wid < 0 || wid >= len(c.w.rt.workers)) {
		c.w.deque.Push(t)
		c.w.rt.Wake()
		return
	}
	// Cross-worker pushes would violate the deque owner discipline, so
	// route through the shared inject stack.
	c.w.rt.submitFrame(t)
}

// ForAsync spawns body over the iteration space [0,n) in chunks of the
// given size, one async task per chunk, within the current finish scope
// (Habanero-C's forasync with loop chunking, as in the paper's Fig. 2).
// chunk <= 0 picks ~4 chunks per worker.
func (c *Ctx) ForAsync(n, chunk int, body func(ctx *Ctx, i int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = n / (c.NumWorkers() * 4)
		if chunk < 1 {
			chunk = 1
		}
	}
	for lo := 0; lo < n; lo += chunk {
		lo := lo
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		c.Async(func(ctx *Ctx) {
			for i := lo; i < hi; i++ {
				body(ctx, i)
			}
		})
	}
}

// Finish runs body and then blocks until every task spawned transitively
// within it has terminated. While blocked, the worker executes other
// available tasks (help-first join).
func (c *Ctx) Finish(body func(*Ctx)) {
	f := c.w.rt.NewFinish(c.finish)
	// The scope's inner context lives inside the Finish itself, so
	// opening a scope costs one allocation (the Finish), not two.
	f.inner.w = c.w
	f.inner.finish = f
	body(&f.inner)
	c.w.join(f)
}

// join helps until f's task count drains to zero, idling as the worker
// loop does (every path that can drop the count to zero calls Wake, so a
// parked joiner is always roused).
func (w *worker) join(f *Finish) {
	rt := w.rt
	zero := func() bool { return f.count.Load() == 0 }
	for !zero() {
		seq := rt.wakeSeq.Load()
		t, ok := w.next()
		if !ok {
			t = w.idle(seq, zero, false)
		}
		if t != nil {
			w.run(t)
		}
	}
}

// find idles as a blocked task does until over holds, and returns the
// first task it finds (nil once over holds) for the caller to hand on.
func (w *worker) find(over func() bool) *Task {
	for !over() {
		seq := w.rt.wakeSeq.Load()
		if t, ok := w.next(); ok {
			return t
		}
		if t := w.idle(seq, over, true); t != nil {
			return t
		}
	}
	return nil
}

// block waits until reg is released, on behalf of the task running on w
// (Ctx.Block). It idles like join while the worker finds nothing else to
// run; the first task it does find goes to a stand-in, and from then on
// the blocked task only waits to be resumed.
func (w *worker) block(reg *ddtReg) {
	if t := w.find(reg.released); t != nil {
		w.suspend(reg, t)
	}
}

// suspension pairs a task suspended in Ctx.Block with its stand-in: the
// goroutine that works in the task's place, starting with the task the
// blocked worker found.
type suspension struct {
	reg  *ddtReg
	task *worker // the suspended task's worker; nobody acts as it meanwhile
	sub  *worker // the stand-in's helper context
	// busy is set while the stand-in is inside a task.
	busy atomic.Bool
}

// suspend parks the blocked task's goroutine until reg is released, with
// a stand-in working in its place meanwhile, t first. Thieves keep
// stealing from w's deque; nobody pushes to it.
//
// Resumption keeps the order a help-first join would: the stand-in's
// current task was started later, so it goes first, and the released task
// resumes when the stand-in is next between tasks. That is depth-first
// scheduling — it keeps the number of tasks in progress, and with it the
// latency of each one's messages, where a join kept it. What a join could
// not do is give up on a top that is stuck: if no wait under the stand-in
// has completed for buriedGrace, the released task resumes regardless,
// and the crosswise wait of two ranks' stacks is broken.
func (w *worker) suspend(reg *ddtReg, t *Task) {
	rt := w.rt
	if w.detached() {
		w.flush() // a helper's deque is invisible to thieves
	}
	s := &suspension{reg: reg, task: w, sub: rt.getHelper()}
	s.sub.below.Store(w)
	s.busy.Store(true)
	rt.suspensions.Inc()
	rt.wg.Add(1)
	go s.standIn(t)
	for !reg.released() {
		<-w.unblock // possibly a stale token from an earlier wait: re-check
	}
	if !s.busy.Load() {
		return
	}
	beats := s.sub.beats.Load()
	grace := time.NewTimer(buriedGrace)
	defer grace.Stop()
	for s.busy.Load() {
		select {
		case <-w.unblock:
		case <-grace.C:
			b := s.sub.beats.Load()
			if b == beats {
				rt.unburied.Inc()
				return
			}
			beats = b
			grace.Reset(buriedGrace)
		}
	}
}

// standIn is a worker for the length of a suspension: it runs first,
// then whatever a pool worker would find, and idles like one (so it
// drives the idle hook too). It retires at the first task boundary after
// the suspended task's release. If that task has given up waiting for the
// boundary, the node runs one task more than it has workers until then.
//
// A stand-in is a detached helper context: tasks spawned under it go to
// the inject queue, and their Worker() id is outside [0, NumWorkers).
func (s *suspension) standIn(first *Task) {
	w, rt := s.sub, s.sub.rt
	defer rt.wg.Done()
	over := func() bool { return s.reg.released() || rt.done.Load() }
	for t := first; t != nil; t = w.find(over) {
		s.busy.Store(true)
		w.run(t)
		s.busy.Store(false)
	}
	select {
	case s.task.unblock <- struct{}{}:
	default: // a token is already waiting
	}
	w.flush()
	w.below.Store(nil)
	rt.putHelper(w)
}

// beat records that a blocked task has resumed on w: for whoever waits
// behind w's current task, and behind that one's, down the stand-ins.
func (w *worker) beat() {
	for ; w != nil; w = w.below.Load() {
		w.beats.Add(1)
	}
}

// flush makes the tasks on w's own deque visible to the whole pool.
func (w *worker) flush() {
	for {
		t, ok := w.deque.Pop()
		if !ok {
			return
		}
		w.rt.submitFrame(t)
	}
}

// helperIDs hands out worker ids above the real pool for help-first
// execution contexts.
var helperIDs atomic.Int64

// getHelper pops a recycled helper context or builds one. Helper ids
// are assigned once, at construction, and stay with the context across
// reuses; they lie above the pool's, which is what makes it detached.
func (rt *Runtime) getHelper() *worker {
	hw, ok := rt.helpers.Pop()
	if !ok {
		hw = &worker{
			id:     int(helperIDs.Add(1)) + len(rt.workers),
			rt:     rt,
			deque:  deque.NewDeque[Task](),
			rng:    rand.New(rand.NewSource(helperIDs.Load()*40503 + 7)),
			frames: deque.NewFreeList[Task](frameListCap),
		}
		hw.idleCtx.w = hw
	}
	return hw
}

// putHelper recycles a helper context; its deque must be empty.
func (rt *Runtime) putHelper(hw *worker) { rt.helpers.Push(hw) }

// Finish tracks the live-task count of one finish scope.
type Finish struct {
	rt     *Runtime
	parent *Finish
	count  atomic.Int64
	onZero func()
	// inner is the scope's execution context (Ctx.Finish hands body a
	// pointer into the Finish instead of allocating a second object).
	inner Ctx
}

// Inc registers one more pending task on the scope (exported for runtime
// clients like the HCMPI communication worker).
func (f *Finish) Inc() { f.inc() }

// Dec marks one pending task complete.
func (f *Finish) Dec() { f.dec() }

func (f *Finish) inc() { f.count.Add(1) }

func (f *Finish) dec() {
	if f.count.Add(-1) == 0 {
		if f.onZero != nil {
			f.onZero()
		}
		// Joiners may be parked on the idle condition; rouse them so they
		// re-check the count.
		f.rt.Wake()
	}
}
