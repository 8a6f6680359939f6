// Package omp is a small OpenMP-like fork-join substrate used to build
// the paper's hybrid MPI+OpenMP baselines: parallel regions with an
// implicit barrier at the end, in-region barriers, static and dynamic
// worksharing loops, reductions, critical sections, single regions, and
// the cancellable barrier the paper's improved UTS hybrid relies on
// ("when threads run out of work ... they wait at a cancelable barrier").
//
// The point of this package is to reproduce the structural properties the
// paper attributes to the hybrid model — fork/join regions with implicit
// barriers, staged compute-then-communicate phases — not to reimplement
// an OpenMP runtime.
package omp

import (
	"sync"
	"sync/atomic"
)

// Team is a reusable group of logical threads.
type Team struct {
	n int
}

// NewTeam creates a team of n threads.
func NewTeam(n int) *Team {
	if n <= 0 {
		n = 1
	}
	return &Team{n: n}
}

// NumThreads returns the team size.
func (t *Team) NumThreads() int { return t.n }

// TC is the per-thread context inside a parallel region.
type TC struct {
	id     int
	team   *Team
	reg    *region
	dynSeq int64 // this thread's DynamicFor call count (loop identity)
}

// ThreadNum returns the calling thread's id (omp_get_thread_num).
func (tc *TC) ThreadNum() int { return tc.id }

// NumThreads returns the team size (omp_get_num_threads).
func (tc *TC) NumThreads() int { return tc.team.n }

// region holds the shared state of one parallel region.
type region struct {
	team *Team
	bar  *Barrier
	crit sync.Mutex
	once sync.Once

	dynCounters sync.Map // loop id -> *atomic.Int64
}

// Parallel runs body once per team thread and joins them (the implicit
// barrier at the end of an OpenMP parallel region).
func (t *Team) Parallel(body func(tc *TC)) {
	reg := &region{team: t, bar: NewBarrier(t.n)}
	var wg sync.WaitGroup
	for i := 0; i < t.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(&TC{id: i, team: t, reg: reg})
		}(i)
	}
	wg.Wait()
}

// Barrier synchronizes the whole team inside a region (#pragma omp
// barrier).
func (tc *TC) Barrier() { tc.reg.bar.Wait() }

// Critical runs f under the region's critical-section lock. Whether f
// may block is the caller's contract, as in OpenMP.
func (tc *TC) Critical(f func()) {
	tc.reg.crit.Lock()
	defer tc.reg.crit.Unlock()
	f()
}

// Single runs f on exactly one thread of the region (#pragma omp single
// nowait — pair with Barrier for the waiting form).
func (tc *TC) Single(f func()) { tc.reg.once.Do(f) }

// StaticFor partitions [0,n) into contiguous blocks, one per thread
// (schedule(static)). Call from every thread in the region.
func (tc *TC) StaticFor(n int, body func(i int)) {
	p := tc.team.n
	lo := tc.id * n / p
	hi := (tc.id + 1) * n / p
	for i := lo; i < hi; i++ {
		body(i)
	}
}

// DynamicFor hands out iterations of [0,n) in chunks from a shared
// counter (schedule(dynamic, chunk)). Call from every thread with the
// same loop parameters; loops are matched by call order per region.
func (tc *TC) DynamicFor(n, chunk int, body func(i int)) {
	if chunk <= 0 {
		chunk = 1
	}
	// Each textual loop needs its own counter; threads agree on loop
	// identity by per-thread call sequence, as OpenMP does lexically.
	id := tc.loopID()
	ctrAny, _ := tc.reg.dynCounters.LoadOrStore(id, &atomic.Int64{})
	ctr := ctrAny.(*atomic.Int64)
	for {
		start := int(ctr.Add(int64(chunk))) - chunk
		if start >= n {
			return
		}
		end := start + chunk
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			body(i)
		}
	}
}

// perThreadLoopSeq tracks each thread's dynamic-loop call count.
type loopKey struct{ seq int64 }

func (tc *TC) loopID() loopKey {
	// The region-wide sequence cannot be used per-thread (threads race);
	// instead each thread counts its own DynamicFor calls. Threads
	// executing the same program text reach the same count.
	tc.dynSeq++
	return loopKey{seq: tc.dynSeq}
}

// dynSeq is per-TC state (one TC per thread per region).
// (declared on TC rather than region: no synchronization needed)

// ForReduceInt64 runs body over [0,n) with dynamic scheduling and
// reduces the returned values with op across the team; every thread
// receives the reduced result (the reduction + implicit barrier of
// #pragma omp for reduction).
func (tc *TC) ForReduceInt64(n, chunk int, body func(i int) int64, op func(a, b int64) int64, init int64) int64 {
	local := init
	tc.DynamicFor(n, chunk, func(i int) { local = op(local, body(i)) })
	return tc.reg.bar.ReduceInt64(local, op, init)
}

// For is the one-call combined construct (#pragma omp parallel for): a
// parallel region whose sole content is a dynamically scheduled loop.
func (t *Team) For(n, chunk int, body func(i int)) {
	t.Parallel(func(tc *TC) {
		tc.DynamicFor(n, chunk, body)
	})
}

// Barrier is a reusable sense-reversing barrier for count participants,
// with optional cancellation (the cancellable barrier of the paper's
// improved hybrid UTS) and an integrated reduction slot.
type Barrier struct {
	mu        sync.Mutex
	cond      *sync.Cond
	count     int
	arrived   int
	phase     int64
	cancelled bool

	redVal    int64
	redResult int64
	redInit   bool
}

// NewBarrier creates a barrier for count participants.
func NewBarrier(count int) *Barrier {
	b := &Barrier{count: count}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all participants arrive. It returns true if the
// barrier completed, false if it was cancelled while waiting.
func (b *Barrier) Wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cancelled {
		return false
	}
	b.arrived++
	if b.arrived == b.count {
		b.arrived = 0
		b.phase++
		b.redInit = false
		b.cond.Broadcast()
		return true
	}
	phase := b.phase
	for b.phase == phase && !b.cancelled {
		b.cond.Wait()
	}
	return b.phase != phase
}

// Cancel releases all current waiters with a false return and poisons the
// barrier until Reset.
func (b *Barrier) Cancel() {
	b.mu.Lock()
	b.cancelled = true
	b.arrived = 0
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Reset re-arms a cancelled barrier.
func (b *Barrier) Reset() {
	b.mu.Lock()
	b.cancelled = false
	b.arrived = 0
	b.mu.Unlock()
}

// Cancelled reports whether the barrier is currently cancelled.
func (b *Barrier) Cancelled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cancelled
}

// ReduceInt64 folds each participant's value with op and returns the
// result to every participant; it synchronizes like Wait (and cannot be
// cancelled mid-reduction).
func (b *Barrier) ReduceInt64(v int64, op func(a, b int64) int64, init int64) int64 {
	b.mu.Lock()
	if !b.redInit {
		b.redVal = init
		b.redInit = true
	}
	b.redVal = op(b.redVal, v)
	b.arrived++
	if b.arrived == b.count {
		b.arrived = 0
		b.phase++
		b.redResult = b.redVal
		b.redInit = false
		b.cond.Broadcast()
		b.mu.Unlock()
		return b.redResult
	}
	phase := b.phase
	for b.phase == phase {
		b.cond.Wait()
	}
	// A subsequent cycle cannot release (and overwrite redResult) before
	// this participant re-arrives, so the read is safe.
	res := b.redResult
	b.mu.Unlock()
	return res
}
