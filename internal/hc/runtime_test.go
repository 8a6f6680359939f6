package hc

import (
	"sync/atomic"
	"testing"
	"time"
)

func withRT(t *testing.T, n int, f func(rt *Runtime)) {
	t.Helper()
	rt := New(n)
	defer rt.Shutdown()
	f(rt)
}

func TestRootRunsTask(t *testing.T) {
	withRT(t, 2, func(rt *Runtime) {
		var ran atomic.Bool
		rt.Root(func(ctx *Ctx) { ran.Store(true) })
		if !ran.Load() {
			t.Fatal("root task did not run")
		}
	})
}

func TestAsyncRunsConcurrentChildren(t *testing.T) {
	withRT(t, 4, func(rt *Runtime) {
		var n atomic.Int64
		rt.Root(func(ctx *Ctx) {
			for i := 0; i < 100; i++ {
				ctx.Async(func(*Ctx) { n.Add(1) })
			}
		})
		// Root returns only when the implicit finish drained.
		if n.Load() != 100 {
			t.Fatalf("ran %d tasks, want 100", n.Load())
		}
	})
}

func TestFinishJoinsTransitively(t *testing.T) {
	withRT(t, 4, func(rt *Runtime) {
		var done atomic.Int64
		var afterFinish atomic.Bool
		rt.Root(func(ctx *Ctx) {
			ctx.Finish(func(ctx *Ctx) {
				for i := 0; i < 10; i++ {
					ctx.Async(func(ctx *Ctx) {
						// Grandchildren must also be joined.
						ctx.Async(func(*Ctx) {
							time.Sleep(time.Millisecond)
							done.Add(1)
						})
						done.Add(1)
					})
				}
			})
			if done.Load() != 20 {
				t.Errorf("finish returned with %d/20 tasks complete", done.Load())
			}
			afterFinish.Store(true)
		})
		if !afterFinish.Load() {
			t.Fatal("root never reached post-finish statement")
		}
	})
}

func TestNestedFinishScopes(t *testing.T) {
	withRT(t, 3, func(rt *Runtime) {
		order := make(chan string, 8)
		rt.Root(func(ctx *Ctx) {
			ctx.Finish(func(ctx *Ctx) {
				ctx.Async(func(ctx *Ctx) {
					ctx.Finish(func(ctx *Ctx) {
						ctx.Async(func(*Ctx) { order <- "inner" })
					})
					order <- "after-inner"
				})
			})
			order <- "after-outer"
		})
		if a, b, c := <-order, <-order, <-order; a != "inner" || b != "after-inner" || c != "after-outer" {
			t.Fatalf("order = %s,%s,%s", a, b, c)
		}
	})
}

// The paper's Fig. 1 schema: STMT1 (child) may run in parallel with STMT2
// (parent continuation); STMT3 runs only after the finish.
func TestFig1Schema(t *testing.T) {
	withRT(t, 2, func(rt *Runtime) {
		var stmt1, stmt2, stmt3 atomic.Bool
		rt.Root(func(ctx *Ctx) {
			ctx.Finish(func(ctx *Ctx) {
				ctx.Async(func(*Ctx) { stmt1.Store(true) })
				stmt2.Store(true)
				if stmt3.Load() {
					t.Error("STMT3 ran before finish completed")
				}
			})
			if !stmt1.Load() || !stmt2.Load() {
				t.Error("finish returned before STMT1/STMT2")
			}
			stmt3.Store(true)
		})
	})
}

// Vector addition from the paper's Fig. 2: chunked async tasks under a
// finish.
func TestVectorAddFig2(t *testing.T) {
	withRT(t, 4, func(rt *Runtime) {
		const size = 1024
		const part = 16
		a := make([]float64, size)
		b := make([]float64, size)
		cvec := make([]float64, size)
		for i := range a {
			a[i] = float64(i)
			b[i] = float64(2 * i)
		}
		rt.Root(func(ctx *Ctx) {
			ctx.Finish(func(ctx *Ctx) {
				for i := 0; i < size/part; i++ {
					i := i // IN(i) capture semantics
					ctx.Async(func(*Ctx) {
						start := i * part
						for j := start; j < start+part; j++ {
							cvec[j] = a[j] + b[j]
						}
					})
				}
			})
		})
		for i := range cvec {
			if cvec[i] != float64(3*i) {
				t.Fatalf("c[%d] = %v want %v", i, cvec[i], float64(3*i))
			}
		}
	})
}

func TestWorkStealingSpreadsLoad(t *testing.T) {
	withRT(t, 4, func(rt *Runtime) {
		var spin atomic.Int64
		rt.Root(func(ctx *Ctx) {
			ctx.Finish(func(ctx *Ctx) {
				for i := 0; i < 64; i++ {
					ctx.Async(func(*Ctx) {
						for j := 0; j < 1000; j++ {
							spin.Add(1)
						}
					})
				}
			})
		})
		if spin.Load() != 64_000 {
			t.Fatalf("spin = %d", spin.Load())
		}
		if n := rt.Metrics().Counter("hc_tasks_run").Load(); n < 64 {
			t.Fatalf("hc_tasks_run = %d", n)
		}
	})
}

func TestAsyncAtRoutesToWorker(t *testing.T) {
	withRT(t, 4, func(rt *Runtime) {
		var onTarget atomic.Int64
		rt.Root(func(ctx *Ctx) {
			ctx.Finish(func(ctx *Ctx) {
				for i := 0; i < 16; i++ {
					ctx.AsyncAt(i%ctx.NumWorkers(), func(ctx *Ctx) {
						onTarget.Add(1)
					})
				}
			})
		})
		if onTarget.Load() != 16 {
			t.Fatalf("ran %d", onTarget.Load())
		}
	})
}

func TestCtxAccessors(t *testing.T) {
	withRT(t, 3, func(rt *Runtime) {
		rt.Root(func(ctx *Ctx) {
			if ctx.NumWorkers() != 3 {
				t.Errorf("NumWorkers = %d", ctx.NumWorkers())
			}
			if w := ctx.Worker(); w < 0 || w >= 3 {
				t.Errorf("Worker = %d", w)
			}
			if ctx.Runtime() != rt {
				t.Error("Runtime accessor wrong")
			}
			if ctx.CurrentFinish() == nil {
				t.Error("root ctx has no finish")
			}
		})
	})
}

func TestSubmitFromOutside(t *testing.T) {
	withRT(t, 2, func(rt *Runtime) {
		f := rt.NewFinish(nil)
		f.Inc()
		done := make(chan struct{})
		rt.Submit(NewTask(func(*Ctx) { close(done) }, f))
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("submitted task never ran")
		}
	})
}

func TestManyTasksDeepRecursion(t *testing.T) {
	// Fibonacci-style recursive spawning exercises steal paths and
	// nested finish joins.
	withRT(t, 4, func(rt *Runtime) {
		var fib func(ctx *Ctx, n int) int64
		fib = func(ctx *Ctx, n int) int64 {
			if n < 2 {
				return int64(n)
			}
			var a, b int64
			ctx.Finish(func(ctx *Ctx) {
				ctx.Async(func(ctx *Ctx) { a = fib(ctx, n-1) })
				b = fib(ctx, n-2)
			})
			return a + b
		}
		var got int64
		rt.Root(func(ctx *Ctx) { got = fib(ctx, 18) })
		if got != 2584 {
			t.Fatalf("fib(18) = %d want 2584", got)
		}
	})
}

func TestSingleWorkerStillCompletes(t *testing.T) {
	withRT(t, 1, func(rt *Runtime) {
		var n atomic.Int64
		rt.Root(func(ctx *Ctx) {
			ctx.Finish(func(ctx *Ctx) {
				for i := 0; i < 50; i++ {
					ctx.Async(func(ctx *Ctx) {
						ctx.Async(func(*Ctx) { n.Add(1) })
						n.Add(1)
					})
				}
			})
		})
		if n.Load() != 100 {
			t.Fatalf("n = %d", n.Load())
		}
	})
}

func TestShutdownIdempotentWorkers(t *testing.T) {
	rt := New(2)
	rt.Root(func(ctx *Ctx) {})
	rt.Shutdown()
	// Workers have exited; a second Shutdown must not hang or panic.
	rt.Shutdown()
}

func TestAsyncBlockingJoinsFinish(t *testing.T) {
	withRT(t, 2, func(rt *Runtime) {
		var ran atomic.Bool
		rt.Root(func(ctx *Ctx) {
			ctx.Finish(func(ctx *Ctx) {
				ctx.AsyncBlocking(func(ctx *Ctx) {
					time.Sleep(2 * time.Millisecond) // legitimately blocks
					// Spawns from a detached ctx reach the pool.
					ctx.Finish(func(ctx *Ctx) {
						ctx.Async(func(*Ctx) { ran.Store(true) })
					})
				})
			})
			if !ran.Load() {
				t.Error("finish returned before blocking task's children")
			}
		})
	})
}

func TestForAsyncCoversRange(t *testing.T) {
	withRT(t, 3, func(rt *Runtime) {
		const n = 1000
		var hits [n]atomic.Int32
		rt.Root(func(ctx *Ctx) {
			ctx.Finish(func(ctx *Ctx) {
				ctx.ForAsync(n, 64, func(_ *Ctx, i int) { hits[i].Add(1) })
			})
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("i=%d ran %d times", i, hits[i].Load())
			}
		}
	})
}

func TestForAsyncAutoChunkAndEdgeCases(t *testing.T) {
	withRT(t, 2, func(rt *Runtime) {
		var sum atomic.Int64
		rt.Root(func(ctx *Ctx) {
			ctx.Finish(func(ctx *Ctx) {
				ctx.ForAsync(0, 0, func(*Ctx, int) { t.Error("empty range ran") })
				ctx.ForAsync(7, 0, func(_ *Ctx, i int) { sum.Add(int64(i)) }) // auto chunk
				ctx.ForAsync(1, 100, func(_ *Ctx, i int) { sum.Add(100) })    // chunk > n
			})
		})
		if sum.Load() != 21+100 {
			t.Fatalf("sum = %d", sum.Load())
		}
	})
}

func TestRuntimeNumWorkersAndFinishDec(t *testing.T) {
	rt := New(3)
	defer rt.Shutdown()
	if rt.NumWorkers() != 3 {
		t.Fatalf("NumWorkers = %d", rt.NumWorkers())
	}
	// External Inc/Dec bookkeeping (used by HCMPI's comm worker).
	f := rt.NewFinish(nil)
	f.Inc()
	done := make(chan struct{})
	f2 := rt.NewFinish(nil)
	_ = f2
	go func() {
		f.Dec()
		close(done)
	}()
	<-done
}
