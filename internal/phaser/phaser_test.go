package phaser

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestBarrierPhaseOrdering(t *testing.T) {
	const tasks = 8
	const phases = 20
	p := New(Config{})
	regs := make([]*Reg, tasks)
	for i := range regs {
		regs[i] = p.Register(SignalWait)
	}
	var counters [tasks]atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ph := 0; ph < phases; ph++ {
				counters[i].Store(int64(ph))
				regs[i].Next()
				// Phase-ordering: after Next returns, no task may still be
				// in a phase earlier than ours.
				for j := 0; j < tasks; j++ {
					if c := counters[j].Load(); c < int64(ph) {
						t.Errorf("task %d at phase %d saw task %d at %d", i, ph, j, c)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if got := p.Phase(); got != phases {
		t.Fatalf("Phase = %d want %d", got, phases)
	}
}

func TestSignalOnlyDoesNotBlock(t *testing.T) {
	p := New(Config{})
	sw := p.Register(SignalWait)
	so := p.Register(SignalOnly)

	done := make(chan struct{})
	go func() {
		so.Next() // must return even though sw has not signalled... wait:
		// SignalOnly returns without waiting for release only if its
		// signal is accepted; with sw unsignalled the phase is not yet
		// complete, but SignalOnly never waits for completion.
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("SignalOnly.Next blocked")
	}
	sw.Next() // completes phase 0
	if p.Phase() != 1 {
		t.Fatalf("phase = %d", p.Phase())
	}
}

func TestSignalOnlyRunsAheadAtMostOnePhase(t *testing.T) {
	p := New(Config{})
	sw := p.Register(SignalWait)
	so := p.Register(SignalOnly)

	so.Next() // signals phase 0, returns
	ahead := make(chan struct{})
	go func() {
		so.Next() // phase 1 signal must wait until phase 0 releases
		close(ahead)
	}()
	select {
	case <-ahead:
		t.Fatal("SignalOnly ran two phases ahead")
	case <-time.After(10 * time.Millisecond):
	}
	sw.Next() // completes phase 0; so's buffered phase-1 signal proceeds
	select {
	case <-ahead:
	case <-time.After(2 * time.Second):
		t.Fatal("SignalOnly phase-1 signal never unblocked")
	}
	sw.Next() // completes phase 1
	if p.Phase() != 2 {
		t.Fatalf("phase = %d", p.Phase())
	}
}

func TestWaitOnlyObservesRelease(t *testing.T) {
	p := New(Config{})
	sw := p.Register(SignalWait)
	wo := p.Register(WaitOnly)

	released := make(chan struct{})
	go func() {
		wo.Next()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("WaitOnly released before signal")
	case <-time.After(10 * time.Millisecond):
	}
	sw.Next()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitOnly never released")
	}
}

func TestDropCountsAsSignal(t *testing.T) {
	p := New(Config{})
	a := p.Register(SignalWait)
	b := p.Register(SignalWait)

	done := make(chan struct{})
	go func() {
		a.Next()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("phase completed with b unsignalled")
	case <-time.After(10 * time.Millisecond):
	}
	b.Drop() // deadlock-freedom: dropping satisfies the phase
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("drop did not release the phase")
	}
	if p.Registered() != 1 {
		t.Fatalf("Registered = %d", p.Registered())
	}
}

func TestDynamicRegistrationMidStream(t *testing.T) {
	p := New(Config{})
	a := p.Register(SignalWait)
	a.Next() // phase 0 completes with a alone
	b := p.Register(SignalWait)
	done := make(chan struct{})
	go func() {
		a.Next() // phase 1 now needs both
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("phase 1 completed without b")
	case <-time.After(10 * time.Millisecond):
	}
	go b.Next()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("phase 1 never completed")
	}
}

func TestNextOnDroppedPanics(t *testing.T) {
	p := New(Config{})
	r := p.Register(SignalWait)
	r.Drop()
	defer func() {
		if recover() == nil {
			t.Fatal("Next on dropped registration did not panic")
		}
	}()
	r.Next()
}

func TestAccumulatorSum(t *testing.T) {
	const tasks = 6
	p := New(Config{Combine: func(a, b any) any { return a.(int64) + b.(int64) }})
	regs := make([]*Reg, tasks)
	for i := range regs {
		regs[i] = p.Register(SignalWait)
	}
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			regs[i].AccumNext(int64(i + 1))
			if got := regs[i].Get(); got.(int64) != 21 {
				t.Errorf("task %d Get = %v want 21", i, got)
			}
		}(i)
	}
	wg.Wait()
}

func TestAccumulatorPerPhaseReset(t *testing.T) {
	p := New(Config{Combine: func(a, b any) any { return a.(int64) + b.(int64) }})
	r := p.Register(SignalWait)
	r.AccumNext(int64(5))
	if got := r.Get().(int64); got != 5 {
		t.Fatalf("phase 0 result = %d", got)
	}
	r.AccumNext(int64(7))
	if got := r.Get().(int64); got != 7 {
		t.Fatalf("phase 1 result = %d (accumulator leaked across phases)", got)
	}
}

func TestExternalReleaseHookStrict(t *testing.T) {
	var hookPhase atomic.Int64
	var hookRan atomic.Bool
	releaseGate := make(chan struct{})
	p := New(Config{Hooks: Hooks{
		ExternalRelease: func(phase int64, local any) any {
			hookPhase.Store(phase)
			<-releaseGate // models a blocking MPI_Barrier
			hookRan.Store(true)
			return local
		},
	}})
	a := p.Register(SignalWait)
	b := p.Register(SignalWait)
	done := make(chan struct{}, 2)
	go func() { a.Next(); done <- struct{}{} }()
	go func() { b.Next(); done <- struct{}{} }()
	select {
	case <-done:
		t.Fatal("waiter released before external release completed (strict violated)")
	case <-time.After(20 * time.Millisecond):
	}
	close(releaseGate)
	<-done
	<-done
	if !hookRan.Load() || hookPhase.Load() != 0 {
		t.Fatalf("hook ran=%v phase=%d", hookRan.Load(), hookPhase.Load())
	}
}

func TestOnFirstArrivalFiresOncePerPhase(t *testing.T) {
	var fires atomic.Int64
	p := New(Config{Hooks: Hooks{OnFirstArrival: func(int64) { fires.Add(1) }}})
	a := p.Register(SignalWait)
	b := p.Register(SignalWait)
	for ph := 0; ph < 3; ph++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a.Next() }()
		go func() { defer wg.Done(); b.Next() }()
		wg.Wait()
	}
	if fires.Load() != 3 {
		t.Fatalf("OnFirstArrival fired %d times want 3", fires.Load())
	}
}

func TestExternalReleaseTransformsAccumulator(t *testing.T) {
	p := New(Config{
		Combine: func(a, b any) any { return a.(int64) + b.(int64) },
		Hooks: Hooks{ExternalRelease: func(_ int64, local any) any {
			return local.(int64) * 100 // models the inter-node Allreduce
		}},
	})
	a := p.Register(SignalWait)
	b := p.Register(SignalWait)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a.AccumNext(int64(1)) }()
	go func() { defer wg.Done(); b.AccumNext(int64(2)) }()
	wg.Wait()
	if got := p.Result().(int64); got != 300 {
		t.Fatalf("Result = %d want 300", got)
	}
}

func TestRegisterDuringExternalRelease(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	p := New(Config{Hooks: Hooks{ExternalRelease: func(_ int64, local any) any {
		once.Do(func() { close(entered) })
		<-gate
		return local
	}}})
	a := p.Register(SignalWait)
	go a.Next()
	<-entered
	// Registration while the master is inside the external release must
	// not corrupt the phase; it takes effect next phase.
	b := p.Register(SignalWait)
	close(gate)
	// Phase 1 requires both.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a.Next() }()
	go func() { defer wg.Done(); b.Next() }()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("phase 1 with late registrant never completed")
	}
}

// Property: accumulator result is independent of arrival order for a
// commutative operation.
func TestQuickAccumOrderIndependence(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 12 {
			vals = vals[:12]
		}
		p := New(Config{Combine: func(a, b any) any { return a.(int64) + b.(int64) }})
		regs := make([]*Reg, len(vals))
		for i := range regs {
			regs[i] = p.Register(SignalWait)
		}
		var wg sync.WaitGroup
		for i, v := range vals {
			wg.Add(1)
			go func(i int, v int64) {
				defer wg.Done()
				regs[i].AccumNext(v)
			}(i, int64(v))
		}
		wg.Wait()
		var want int64
		for _, v := range vals {
			want += int64(v)
		}
		return p.Result().(int64) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestManyPhasesStress(t *testing.T) {
	const tasks = 4
	const phases = 500
	p := New(Config{})
	regs := make([]*Reg, tasks)
	for i := range regs {
		regs[i] = p.Register(SignalWait)
	}
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ph := 0; ph < phases; ph++ {
				regs[i].Next()
			}
		}(i)
	}
	wg.Wait()
	if p.Phase() != phases {
		t.Fatalf("Phase = %d", p.Phase())
	}
}

func TestModeString(t *testing.T) {
	if SignalWait.String() != "SIGNAL_WAIT_MODE" || SignalOnly.String() != "SIGNAL_ONLY_MODE" || WaitOnly.String() != "WAIT_ONLY_MODE" {
		t.Fatal("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode string empty")
	}
}

func TestSplitPhaseSignalWait(t *testing.T) {
	p := New(Config{})
	a := p.Register(SignalWait)
	b := p.Register(SignalWait)

	var overlapped atomic.Bool
	done := make(chan struct{})
	go func() {
		a.Signal()
		overlapped.Store(true) // local work between signal and wait
		a.Wait()
		close(done)
	}()
	// a's Wait cannot complete until b signals.
	select {
	case <-done:
		t.Fatal("split-phase wait returned before all signals")
	case <-time.After(10 * time.Millisecond):
	}
	if !overlapped.Load() {
		t.Fatal("work between signal and wait did not run")
	}
	b.Signal()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("split-phase wait never released")
	}
	b.Wait()
	if p.Phase() != 1 {
		t.Fatalf("phase = %d", p.Phase())
	}
}

func TestSignalOnWaitOnlyPanics(t *testing.T) {
	p := New(Config{})
	r := p.Register(WaitOnly)
	defer func() {
		if recover() == nil {
			t.Fatal("Signal on WAIT_ONLY did not panic")
		}
	}()
	r.Signal()
}

func TestSplitPhaseManyRounds(t *testing.T) {
	const tasks = 3
	const rounds = 50
	p := New(Config{})
	regs := make([]*Reg, tasks)
	for i := range regs {
		regs[i] = p.Register(SignalWait)
	}
	var wg sync.WaitGroup
	var local [tasks]int
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				regs[i].Signal()
				local[i]++ // fuzzy-region work
				regs[i].Wait()
			}
		}(i)
	}
	wg.Wait()
	if p.Phase() != rounds {
		t.Fatalf("phase = %d want %d", p.Phase(), rounds)
	}
	for i, l := range local {
		if l != rounds {
			t.Fatalf("task %d did %d rounds", i, l)
		}
	}
}

func TestModeAccessorAndDoubleDropIdempotent(t *testing.T) {
	p := New(Config{})
	r := p.Register(SignalOnly)
	if r.Mode() != SignalOnly {
		t.Fatalf("Mode = %v", r.Mode())
	}
	r.Drop()
	r.Drop() // idempotent
	if p.Registered() != 0 {
		t.Fatalf("Registered = %d", p.Registered())
	}
}

func TestDropDuringExternalRelease(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	p := New(Config{Hooks: Hooks{ExternalRelease: func(_ int64, local any) any {
		once.Do(func() { close(entered) })
		<-gate
		return local
	}}})
	a := p.Register(SignalWait)
	b := p.Register(SignalOnly)
	go a.Next()
	b.Next()
	<-entered
	// Drop while the master runs the external release: must defer.
	b.Drop()
	close(gate)
	a.Next() // phase 1 with only a registered
	if p.Registered() != 1 {
		t.Fatalf("Registered = %d", p.Registered())
	}
}
