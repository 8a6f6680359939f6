package hc

import (
	"sync/atomic"
	"testing"
	"time"
)

// rootWithin runs f as a root task and fails the test if it has not
// returned after ten seconds.
func rootWithin(t *testing.T, rt *Runtime, what string, f func(*Ctx)) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Root(f)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("deadlock: %s", what)
	}
}

// Block returns at once on a satisfied list, waits for every DDF of an
// AND list and for the first of an OR list.
func TestBlockAllAndAny(t *testing.T) {
	withRT(t, 2, func(rt *Runtime) {
		rootWithin(t, rt, "Block on DDFs put from outside the pool", func(ctx *Ctx) {
			ctx.Block(false)
			full := NewDDF()
			full.Put(ctx, 0)
			ctx.Block(false, full)
			ctx.Block(true, NewDDF(), full)

			a, b := NewDDF(), NewDDF()
			var puts atomic.Int32
			go func() {
				for _, d := range []*DDF{a, b} {
					time.Sleep(200 * time.Microsecond)
					puts.Add(1)
					d.Put(nil, 0)
				}
			}()
			ctx.Block(true, a, b)
			if !a.Full() {
				t.Error("Block(any) returned with neither DDF put")
			}
			ctx.Block(false, a, b)
			if puts.Load() != 2 || !b.Full() {
				t.Errorf("Block(all) returned after %d of 2 puts", puts.Load())
			}
		})
		if got := rt.Metrics().Counter("hc_suspensions").Load(); got != 0 {
			t.Errorf("%d suspensions with nothing else to run; a lone wait must stay on its worker's goroutine", got)
		}
	})
}

// A task the blocked worker finds runs on a stand-in, not on top of the
// blocked task: here the only worker's task blocks on a DDF that the task
// found meanwhile puts, and then waits for the first one in turn. Started
// on the blocked task's stack, the second task would bury it and wait
// forever.
func TestBlockHandsFoundTaskToStandIn(t *testing.T) {
	withRT(t, 1, func(rt *Runtime) {
		var standInWorker atomic.Int64
		rootWithin(t, rt, "the blocked task was buried under the task it waits for", func(ctx *Ctx) {
			first, second := NewDDF(), NewDDF()
			ctx.Async(func(ctx *Ctx) {
				standInWorker.Store(int64(ctx.Worker()))
				first.Put(ctx, 0)
				ctx.Block(false, second) // needs the root task to run again
			})
			ctx.Block(false, first)
			second.Put(ctx, 0)
		})
		if id := standInWorker.Load(); id < int64(rt.NumWorkers()) {
			t.Errorf("the found task ran on worker %d, want a stand-in (id >= %d)", id, rt.NumWorkers())
		}
		if got := rt.Metrics().Counter("hc_suspensions").Load(); got != 1 {
			t.Errorf("hc_suspensions = %d, want 1", got)
		}
	})
}

// Two "ranks" whose blocking tasks stack up in opposite orders, the
// crosswise wait a help-first join deadlocks in: each single-worker
// runtime starts its own-numbered task first, and the task it starts
// second (on a stand-in) ends up waiting for the other runtime's first
// task, which is suspended behind that runtime's stand-in. Neither
// stand-in comes to a task boundary, so a released task has to give up
// waiting for one (buriedGrace) and resume.
func TestBlockResumesBehindStuckStandIn(t *testing.T) {
	rts := [2]*Runtime{New(1), New(1)}
	defer rts[0].Shutdown()
	defer rts[1].Shutdown()
	// Task k of rank r exchanges two messages with task k of rank 1-r:
	// msg[i][r][k] is its i-th.
	var msg [2][2][2]*DDF
	for i := range msg {
		for r := range msg[i] {
			for k := range msg[i][r] {
				msg[i][r][k] = NewDDF()
			}
		}
	}
	var secondStarted [2]atomic.Bool
	done := make(chan struct{}, 2)
	for r, rt := range rts {
		r, rt := r, rt
		task := func(k int) func(*Ctx) {
			return func(ctx *Ctx) {
				if k != r {
					// Started second, so this rank's first task is blocked.
					// Go on once the other rank's is too.
					secondStarted[r].Store(true)
					for !secondStarted[1-r].Load() {
						time.Sleep(10 * time.Microsecond)
					}
				}
				for i := range msg {
					msg[i][r][k].Put(nil, 0)
					ctx.Block(false, msg[i][1-r][k])
				}
			}
		}
		go func() {
			rt.Root(func(ctx *Ctx) {
				ctx.Finish(func(ctx *Ctx) {
					ctx.Async(task(1 - r))
					ctx.Async(task(r)) // runs first: the deque is LIFO for its owner
				})
			})
			done <- struct{}{}
		}()
	}
	for range rts {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock: a released task stayed behind a stuck stand-in")
		}
	}
	unburied := rts[0].Metrics().Counter("hc_unburied").Load() + rts[1].Metrics().Counter("hc_unburied").Load()
	if unburied == 0 {
		t.Error("hc_unburied = 0 on both runtimes: the crosswise wait was not set up")
	}
}
