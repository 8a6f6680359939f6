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
