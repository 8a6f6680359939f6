package hc

import (
	"sync/atomic"
	"testing"
	"time"
)

// An idle hook may release tasks, and releasing one calls Wake, which
// takes idleMu whenever a worker is parked. If a worker ever ran the hook
// with idleMu held (say, from the re-scan it makes just before parking),
// the first release with a sleeper present would self-deadlock — HCMPI's
// stolen progress sweeps do exactly that through PutVia → ReleaseTask →
// Wake. The hook here releases a task only while a worker is parked
// (or has announced that it is about to).
func TestIdleHookReleasesWhileWorkerParked(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()

	const rounds = 200
	var pending atomic.Pointer[DDF] // the DDF the current round waits for
	var ran, calls atomic.Int64
	rt.SetIdleProgress(func(ctx *Ctx) bool {
		calls.Add(1)
		d := pending.Load()
		if d == nil || rt.sleepers.Load() == 0 || !pending.CompareAndSwap(d, nil) {
			return false
		}
		if err := d.PutVia(ctx, 1); err != nil {
			t.Error(err)
		}
		return true
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Root(func(ctx *Ctx) {
			for i := 0; i < rounds; i++ {
				// The join below idles on this worker — scan, hook, spin,
				// park — while the other worker idles in its loop.
				d := NewDDF()
				ctx.Finish(func(ctx *Ctx) {
					ctx.AsyncAwait(func(*Ctx) { ran.Add(1) }, d)
					pending.Store(d)
				})
			}
		})
	}()
	// Both workers may park before either sees the other asleep; nothing
	// would then call the hook again, so keep rousing them.
	tick := time.NewTicker(50 * time.Microsecond)
	defer tick.Stop()
	timeout := time.After(10 * time.Second)
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case <-tick.C:
			rt.Wake()
		case <-timeout:
			t.Fatal("deadlock: a task released from the idle hook never ran")
		}
	}
	if ran.Load() != rounds {
		t.Errorf("%d of %d released tasks ran", ran.Load(), rounds)
	}

	rt.SetIdleProgress(nil)
	rt.Wake() // flush workers that loaded the hook before it was removed
	time.Sleep(time.Millisecond)
	before := calls.Load()
	for i := 0; i < 20; i++ {
		rt.Wake()
		time.Sleep(50 * time.Microsecond)
	}
	if after := calls.Load(); after != before {
		t.Errorf("hook called %d times after removal", after-before)
	}
}

// Every way out of a park is a Wake: a finish count dropping to zero, a
// put releasing a blocked task, a submitted task. Each case lets the only
// worker park in the idle round — the park counter rises after the waiting
// side has published what it waits on — and then releases it from a
// goroutine outside the pool. A release that lands between the worker's
// last check and its idleCond.Wait must still wake it.
func TestIdleWakeAfterPark(t *testing.T) {
	parks := func(rt *Runtime) int64 { return rt.Metrics().Counter("hc_parks").Load() }
	// parkedThenRelease waits for the park counter to pass p0, runs
	// release, and fails unless done closes within a second.
	parkedThenRelease := func(t *testing.T, rt *Runtime, p0 int64, release func(), done <-chan struct{}) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); parks(rt) <= p0; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				release() // let Shutdown's join return
				t.Fatal("the worker never parked")
			}
		}
		release()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("missed wake-up: still parked a second after the release")
		}
	}
	type parked struct {
		p0  int64
		fin *Finish
		ddf *DDF
	}

	t.Run("join", func(t *testing.T) {
		rt := New(1)
		defer rt.Shutdown()
		ready, done := make(chan parked, 1), make(chan struct{})
		go func() {
			defer close(done)
			rt.Root(func(ctx *Ctx) {
				ctx.Finish(func(ctx *Ctx) {
					f := ctx.CurrentFinish()
					f.Inc() // held from outside: the join below can only park
					ready <- parked{p0: parks(rt), fin: f}
				})
			})
		}()
		p := <-ready
		parkedThenRelease(t, rt, p.p0, p.fin.Dec, done)
	})

	t.Run("block", func(t *testing.T) {
		rt := New(1)
		defer rt.Shutdown()
		ready, done := make(chan parked, 1), make(chan struct{})
		go func() {
			defer close(done)
			rt.Root(func(ctx *Ctx) {
				d := NewDDF()
				ready <- parked{p0: parks(rt), ddf: d}
				ctx.Block(false, d)
			})
		}()
		p := <-ready
		parkedThenRelease(t, rt, p.p0, func() { p.ddf.Put(nil, 0) }, done)
	})

	t.Run("submit", func(t *testing.T) {
		rt := New(1)
		defer rt.Shutdown()
		var p0 int64
		rt.Root(func(*Ctx) { p0 = parks(rt) }) // the worker then idles in its loop
		done := make(chan struct{})
		parkedThenRelease(t, rt, p0, func() {
			rt.Submit(NewTask(func(*Ctx) { close(done) }, nil))
		}, done)
	})
}
