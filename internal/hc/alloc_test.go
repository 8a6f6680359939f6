package hc

import "testing"

// TestAsyncSpawnAllocFree pins the steady-state spawn path. Once the
// per-worker frame free lists are warm, spawning a child task must not
// allocate: the frame comes from the pool and the non-capturing task
// body is a static func value. The one allocation permitted per
// measured run is the Finish object itself — finish scopes are
// unpooled by design (they are rare relative to tasks and their
// lifetime crosses workers).
func TestAsyncSpawnAllocFree(t *testing.T) {
	rt := New(1)
	defer rt.Shutdown()
	rt.Root(func(ctx *Ctx) {
		// Warm the worker's frame free list well past the measured burst.
		ctx.Finish(func(c *Ctx) {
			for i := 0; i < 512; i++ {
				c.Async(func(*Ctx) {})
			}
		})
		avg := testing.AllocsPerRun(200, func() {
			ctx.Finish(func(c *Ctx) {
				for i := 0; i < 8; i++ {
					c.Async(func(*Ctx) {})
				}
			})
		})
		// 8 spawns + 1 finish scope: only the finish may allocate.
		if avg > 1 {
			t.Errorf("Finish+8×Async allocated %.2f per run, want ≤ 1 (the Finish object)", avg)
		}
	})
}

// TestDDFAllocs pins the DDF paths on one worker at the counts they
// have today, so a regression shows as a failure rather than as a drift
// nobody records: an AND-3 AsyncAwait whose three inputs are put inside
// one Finish (the await registration, the waiting task and the finish
// scope), and a bare NewDDF/Put/MustGet.
func TestDDFAllocs(t *testing.T) {
	rt := New(1)
	defer rt.Shutdown()
	rt.Root(func(ctx *Ctx) {
		cases := []struct {
			name string
			max  float64
			run  func()
		}{
			{"await-and3", 8, func() {
				x, y, z := NewDDF(), NewDDF(), NewDDF()
				ctx.Finish(func(ctx *Ctx) {
					ctx.AsyncAwait(func(*Ctx) {}, x, y, z)
					x.Put(ctx, 1)
					y.Put(ctx, 2)
					z.Put(ctx, 3)
				})
			}},
			{"put-get", 1, func() {
				d := NewDDF()
				d.Put(ctx, 7)
				if d.MustGet() != 7 {
					t.Error("MustGet returned the wrong value")
				}
			}},
		}
		for _, tc := range cases {
			for i := 0; i < 256; i++ {
				tc.run()
			}
			if avg := testing.AllocsPerRun(200, tc.run); avg > tc.max {
				t.Errorf("%s allocated %.2f per run, want ≤ %.0f", tc.name, avg, tc.max)
			} else {
				t.Logf("%s: %.2f allocs per run (ceiling %.0f)", tc.name, avg, tc.max)
			}
		}
	})
}
