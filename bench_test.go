// Benchmarks in two layers, mirroring the paper's evaluation:
//
//   - Library micro-benchmarks against the real runtime: task spawn and
//     join, DDF put/get and await lists, phaser phases, accumulator
//     reductions, communication-task round trips, DDDF fetches.
//
//   - One benchmark per paper table/figure, driving the discrete-event
//     models that regenerate the corresponding experiment (bandwidth,
//     message rate, latency, syncbench grid, UTS scaling/speedups and
//     profile, Smith-Waterman scaling and comparison). These report the
//     experiment's headline quantity as a custom metric so `go test
//     -bench` output doubles as a results table.
package hcmpi_test

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hcmpi"
	"hcmpi/internal/dddf"
	"hcmpi/internal/hc"
	hcmpinode "hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
	"hcmpi/internal/sim/model"
	"hcmpi/internal/sw"
	"hcmpi/internal/uts"
)

// --- real-runtime micro-benchmarks ---

func BenchmarkAsyncFinish(b *testing.B) {
	rt := hc.New(2)
	defer rt.Shutdown()
	b.ReportAllocs()
	rt.Root(func(ctx *hc.Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.Finish(func(ctx *hc.Ctx) {
				ctx.Async(func(*hc.Ctx) {})
			})
		}
	})
}

func BenchmarkAsyncFanout64(b *testing.B) {
	rt := hc.New(4)
	defer rt.Shutdown()
	rt.Root(func(ctx *hc.Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx.Finish(func(ctx *hc.Ctx) {
				for j := 0; j < 64; j++ {
					ctx.Async(func(*hc.Ctx) {})
				}
			})
		}
	})
}

func BenchmarkDDFPutGet(b *testing.B) {
	rt := hc.New(1)
	defer rt.Shutdown()
	rt.Root(func(ctx *hc.Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := hc.NewDDF()
			d.Put(ctx, i)
			if d.MustGet() != i {
				b.Fatal("bad value")
			}
		}
	})
}

func BenchmarkDDFAwaitAND3(b *testing.B) {
	rt := hc.New(2)
	defer rt.Shutdown()
	rt.Root(func(ctx *hc.Ctx) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x, y, z := hc.NewDDF(), hc.NewDDF(), hc.NewDDF()
			ctx.Finish(func(ctx *hc.Ctx) {
				ctx.AsyncAwait(func(*hc.Ctx) {}, x, y, z)
				x.Put(ctx, 1)
				y.Put(ctx, 2)
				z.Put(ctx, 3)
			})
		}
	})
}

func BenchmarkPhaserNext4Tasks(b *testing.B) {
	// 4 goroutine-backed tasks cycling phases.
	hcmpi.Run(1, 2, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		ph := n.PhaserCreate(hcmpi.Strict)
		b.ResetTimer()
		ctx.Finish(func(ctx *hcmpi.Ctx) {
			for t := 0; t < 4; t++ {
				hcmpi.AsyncPhased(ctx, ph, hcmpi.SignalWait, func(_ *hcmpi.Ctx, reg *hcmpi.PhaserReg) {
					for i := 0; i < b.N; i++ {
						reg.Next()
					}
				})
			}
		})
	})
}

func BenchmarkAccumulatorNext(b *testing.B) {
	hcmpi.Run(1, 2, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		acc := n.AccumCreate(hcmpi.OpSum, hcmpi.Int64)
		reg := acc.Register(hcmpi.SignalWait)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			reg.AccumNext(int64(1))
		}
	})
}

func BenchmarkCommTaskRoundTrip(b *testing.B) {
	// One Isend+Recv ping through the communication workers of two ranks.
	hcmpi.Run(2, 1, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		buf := make([]byte, 8)
		if n.Rank() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Send(ctx, buf, 1, 0)
				n.Recv(ctx, buf, 1, 1)
			}
		} else {
			for i := 0; i < b.N; i++ {
				n.Recv(ctx, buf, 0, 0)
				n.Send(ctx, buf, 0, 1)
			}
		}
	})
}

// BenchmarkHCMPIPingPong is the benchmark suite's pingpong_8b loop (an
// 8-byte Send and a Recv on one side, the echo on the other, one
// computation worker per rank) with the two numbers that say who drove
// the communication engine: sweeps per round trip, and the share of them
// a computation worker drove instead of the dedicated worker.
func BenchmarkHCMPIPingPong(b *testing.B) {
	hcmpi.Run(2, 1, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		out, back := make([]byte, 8), make([]byte, 8)
		if n.Rank() == 1 {
			for i := 0; i < b.N; i++ {
				n.Recv(ctx, back, 0, 1)
				n.Send(ctx, back, 0, 2)
			}
			return
		}
		before := n.StatsSnapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Send(ctx, out, 1, 1)
			n.Recv(ctx, back, 1, 2)
		}
		b.StopTimer()
		after := n.StatsSnapshot()
		polls := after.Polls - before.Polls
		b.ReportMetric(float64(polls)/float64(b.N), "sweeps/op")
		if polls > 0 {
			b.ReportMetric(float64(after.ProgressStolen-before.ProgressStolen)/float64(polls), "stolen-share")
		}
	})
}

// BenchmarkWaitCompleted is the help-first wait's fast path: Wait on a
// request that has already completed is one atomic load and allocates
// nothing (no finish scope, no await registration).
func BenchmarkWaitCompleted(b *testing.B) {
	hcmpi.Run(1, 1, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		req := n.Isend(make([]byte, 8), 0, 0) // to self: completes on delivery
		n.Wait(ctx, req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n.Wait(ctx, req)
		}
	})
}

func BenchmarkHCMPIBarrier2Ranks(b *testing.B) {
	hcmpi.Run(2, 1, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		if n.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			n.Barrier(ctx)
		}
	})
}

func BenchmarkDDDFRemoteFetch(b *testing.B) {
	// Remote await: registration + data transfer, amortized over the
	// cached path (at-most-once transfer means iterations 2..N are local).
	home := func(guid int64) int { return 0 }
	hcmpi.RunDDDF(2, hcmpi.Config{Workers: 1}, home, nil, func(s *hcmpi.DDDFSpace, ctx *hcmpi.Ctx) {
		if s.Node().Rank() == 0 {
			for i := 0; i < b.N; i++ {
				s.Handle(int64(i)).Put(ctx, []byte{1, 2, 3, 4})
			}
			s.Node().Barrier(ctx)
			return
		}
		s.Node().Barrier(ctx)
		b.ResetTimer()
		ctx.Finish(func(ctx *hcmpi.Ctx) {
			for i := 0; i < b.N; i++ {
				h := s.Handle(int64(i))
				s.AsyncAwait(ctx, func(*hcmpi.Ctx) { _ = h.MustGet() }, h)
			}
		})
	})
}

// BenchmarkDDDFFetchBurst keeps 32 remote 1 KiB guids in flight per
// round, as a dataflow program does: the awaits of a round are issued
// back to back, so their registrations (and the home's answers) ride
// aggregated frames. frames/op is both ranks' DDDF messages per guid —
// 2.0 with one message per record, a small fraction when bursts share
// frames.
func BenchmarkDDDFFetchBurst(b *testing.B) {
	const inFlight, size = 32, 1024
	home := func(guid int64) int { return 0 }
	var frames [2]int64
	b.ReportAllocs()
	hcmpi.RunDDDF(2, hcmpi.Config{Workers: 1}, home, nil, func(s *hcmpi.DDDFSpace, ctx *hcmpi.Ctx) {
		sent := s.Node().Metrics().Counter("dddf_frames_sent")
		if s.Node().Rank() == 0 {
			for i := 0; i < b.N; i++ {
				s.Handle(int64(i)).Put(ctx, make([]byte, size))
			}
			s.Node().Barrier(ctx)
			s.Node().Barrier(ctx) // rank 1 has fetched everything
			frames[0] = sent.Load()
			return
		}
		s.Node().Barrier(ctx)
		b.ResetTimer()
		for i := 0; i < b.N; i += inFlight {
			ctx.Finish(func(ctx *hcmpi.Ctx) {
				for g := i; g < min(i+inFlight, b.N); g++ {
					h := s.Handle(int64(g))
					s.AsyncAwait(ctx, func(*hcmpi.Ctx) { _ = h.MustGet() }, h)
				}
			})
		}
		b.StopTimer()
		s.Node().Barrier(ctx)
		frames[1] = sent.Load()
	})
	b.ReportMetric(float64(frames[0]+frames[1])/float64(b.N), "frames/op")
}

// --- per-table / per-figure experiment benchmarks (simulator) ---

// BenchmarkFig14Bandwidth reports the modelled 8-thread bandwidth gap.
func BenchmarkFig14Bandwidth(b *testing.B) {
	cm := model.DefaultCosts()
	var m, h float64
	for i := 0; i < b.N; i++ {
		m = model.ThreadBenchMPI(8, cm).BandwidthGbps
		h = model.ThreadBenchHCMPI(8, cm).BandwidthGbps
	}
	b.ReportMetric(m, "MPI-Gbps")
	b.ReportMetric(h, "HCMPI-Gbps")
}

// BenchmarkFig14MessageRate reports the 8-thread message-rate crossover.
func BenchmarkFig14MessageRate(b *testing.B) {
	cm := model.DefaultCosts()
	var m, h float64
	for i := 0; i < b.N; i++ {
		m = model.ThreadBenchMPI(8, cm).MsgRateM
		h = model.ThreadBenchHCMPI(8, cm).MsgRateM
	}
	b.ReportMetric(m, "MPI-Mmsgs/s")
	b.ReportMetric(h, "HCMPI-Mmsgs/s")
}

// BenchmarkFig14Latency reports 1024-byte latencies at 8 threads.
func BenchmarkFig14Latency(b *testing.B) {
	cm := model.DefaultCosts()
	var m, h float64
	for i := 0; i < b.N; i++ {
		m = model.ThreadBenchMPI(8, cm).LatencyUS[1024]
		h = model.ThreadBenchHCMPI(8, cm).LatencyUS[1024]
	}
	b.ReportMetric(m, "MPI-µs")
	b.ReportMetric(h, "HCMPI-µs")
}

// BenchmarkFig15MessageRate is Fig 14's rate test on the Gemini preset.
func BenchmarkFig15MessageRate(b *testing.B) {
	cm := model.GeminiCosts()
	var m, h float64
	for i := 0; i < b.N; i++ {
		m = model.ThreadBenchMPI(8, cm).MsgRateM
		h = model.ThreadBenchHCMPI(8, cm).MsgRateM
	}
	b.ReportMetric(m, "MPI-Mmsgs/s")
	b.ReportMetric(h, "HCMPI-Mmsgs/s")
}

// BenchmarkTable2Barrier reports the 16-node/8-core barrier costs.
func BenchmarkTable2Barrier(b *testing.B) {
	cm := model.DefaultCosts()
	var mpiUS, hcS, hcF float64
	for i := 0; i < b.N; i++ {
		mpiUS = model.SyncBench(model.SyncMPI, model.Barrier, 16, 8, cm)
		hcS = model.SyncBench(model.SyncHCMPIStrict, model.Barrier, 16, 8, cm)
		hcF = model.SyncBench(model.SyncHCMPIFuzzy, model.Barrier, 16, 8, cm)
	}
	b.ReportMetric(mpiUS, "MPI-µs")
	b.ReportMetric(hcS, "strict-µs")
	b.ReportMetric(hcF, "fuzzy-µs")
}

// BenchmarkTable2Reduction reports the 16-node/8-core reduction costs.
func BenchmarkTable2Reduction(b *testing.B) {
	cm := model.DefaultCosts()
	var mpiUS, acc float64
	for i := 0; i < b.N; i++ {
		mpiUS = model.SyncBench(model.SyncMPI, model.Reduction, 16, 8, cm)
		acc = model.SyncBench(model.SyncHCMPIFuzzy, model.Reduction, 16, 8, cm)
	}
	b.ReportMetric(mpiUS, "MPI-µs")
	b.ReportMetric(acc, "accum-µs")
}

func utsBenchParams() model.UTSParams { return model.DefaultUTSParams(uts.T1Med) }

// BenchmarkFig16UTSMPI reports UTS/MPI makespan at 8 nodes × 8 cores.
func BenchmarkFig16UTSMPI(b *testing.B) {
	up := utsBenchParams()
	var s time.Duration
	for i := 0; i < b.N; i++ {
		s = model.UTSRunMPI(8, 8, up).Makespan
	}
	b.ReportMetric(s.Seconds(), "sim-s")
}

// BenchmarkFig17UTSMPIT3 is Fig 16's T3 sibling.
func BenchmarkFig17UTSMPIT3(b *testing.B) {
	up := model.DefaultUTSParams(uts.T3Mid)
	var s time.Duration
	for i := 0; i < b.N; i++ {
		s = model.UTSRunMPI(8, 8, up).Makespan
	}
	b.ReportMetric(s.Seconds(), "sim-s")
}

// BenchmarkFig18UTSHCMPI reports UTS/HCMPI makespan at 8 nodes × 8 cores.
func BenchmarkFig18UTSHCMPI(b *testing.B) {
	up := utsBenchParams()
	var s time.Duration
	for i := 0; i < b.N; i++ {
		s = model.UTSRunHCMPI(8, 8, up).Makespan
	}
	b.ReportMetric(s.Seconds(), "sim-s")
}

// BenchmarkFig19UTSHCMPIT3 is Fig 18's T3 sibling.
func BenchmarkFig19UTSHCMPIT3(b *testing.B) {
	up := model.DefaultUTSParams(uts.T3Mid)
	var s time.Duration
	for i := 0; i < b.N; i++ {
		s = model.UTSRunHCMPI(8, 8, up).Makespan
	}
	b.ReportMetric(s.Seconds(), "sim-s")
}

// BenchmarkFig20Speedup reports the T1 HCMPI-over-MPI speedup in the
// starved regime (16 nodes × 16 cores).
func BenchmarkFig20Speedup(b *testing.B) {
	up := utsBenchParams()
	var sp float64
	for i := 0; i < b.N; i++ {
		m := model.UTSRunMPI(16, 16, up)
		h := model.UTSRunHCMPI(16, 16, up)
		sp = float64(m.Makespan) / float64(h.Makespan)
	}
	b.ReportMetric(sp, "speedup")
}

// BenchmarkFig21SpeedupT3 is Fig 20's T3 sibling (8×8: the mid-grid
// point of the figure, where the measured speedup is ~1.9).
func BenchmarkFig21SpeedupT3(b *testing.B) {
	up := model.DefaultUTSParams(uts.T3Mid)
	var sp float64
	for i := 0; i < b.N; i++ {
		m := model.UTSRunMPI(8, 8, up)
		h := model.UTSRunHCMPI(8, 8, up)
		sp = float64(m.Makespan) / float64(h.Makespan)
	}
	b.ReportMetric(sp, "speedup")
}

// BenchmarkTable3Profile reports the failed-steal gap at 16×16.
func BenchmarkTable3Profile(b *testing.B) {
	up := utsBenchParams()
	var mf, hf float64
	for i := 0; i < b.N; i++ {
		mf = float64(model.UTSRunMPI(16, 16, up).Fails)
		hf = float64(model.UTSRunHCMPI(16, 16, up).Fails)
	}
	b.ReportMetric(mf, "MPI-fails")
	b.ReportMetric(hf, "HCMPI-fails")
}

// BenchmarkFig22HybridSpeedup reports HCMPI over the hybrid at 16×16.
func BenchmarkFig22HybridSpeedup(b *testing.B) {
	up := utsBenchParams()
	var sp float64
	for i := 0; i < b.N; i++ {
		y := model.UTSRunHybrid(16, 16, up)
		h := model.UTSRunHCMPI(16, 16, up)
		sp = float64(y.Makespan) / float64(h.Makespan)
	}
	b.ReportMetric(sp, "speedup")
}

// BenchmarkTable4SW reports the Smith-Waterman DDDF makespan at the
// paper's 8-node/12-core corner (paper: 192.3s).
func BenchmarkTable4SW(b *testing.B) {
	sp := model.DefaultSWParams()
	var s time.Duration
	for i := 0; i < b.N; i++ {
		s = model.SWRunDDDF(8, 12, sp)
	}
	b.ReportMetric(s.Seconds(), "sim-s")
}

// BenchmarkFig25SWSpeedup reports hybrid-time/DDDF-time at 4 nodes × 12
// cores (paper: 1.60).
func BenchmarkFig25SWSpeedup(b *testing.B) {
	spD := model.Fig25SWParams()
	spH := spD
	spH.Cfg.OuterH, spH.Cfg.OuterW = 5800, 6000
	var sp float64
	for i := 0; i < b.N; i++ {
		d := model.SWRunDDDF(4, 12, spD)
		h := model.SWRunHybrid(4, 12, spH)
		sp = float64(h) / float64(d)
	}
	b.ReportMetric(sp, "speedup")
}

// BenchmarkRealUTSHCMPI runs the real (non-simulated) runtime end to end
// on a small tree: 2 ranks × 2 workers, full steal and termination
// protocol per iteration.
func BenchmarkRealUTSHCMPI(b *testing.B) {
	want, _ := uts.T1Small.SeqCount()
	for i := 0; i < b.N; i++ {
		var total int64
		var mu sync.Mutex
		w := mpi.NewWorld(2)
		w.Run(func(c *mpi.Comm) {
			n := hcmpinode.NewNode(c, hcmpinode.Config{Workers: 2})
			ctr := uts.RunHCMPI(n, uts.T1Small, uts.Params{Chunk: 4, PollInterval: 8})
			mu.Lock()
			total += ctr.Nodes
			mu.Unlock()
			n.Close()
		})
		if total != want {
			b.Fatalf("nodes %d want %d", total, want)
		}
	}
}

// BenchmarkRealSWDDDF runs the real runtime's Smith-Waterman DDDF
// version end to end: 2 ranks × 1 worker on a 2400 × 2400 alignment
// tiled like hcbench's sw_dddf workload (200 × 250 outer tiles, 50 × 50
// inner tiles), checked against the sequential score.
func BenchmarkRealSWDDDF(b *testing.B) {
	cfg := sw.Config{LenA: 2400, LenB: 2400, Seed: 7, OuterH: 200, OuterW: 250, InnerH: 50, InnerW: 50}
	want := sw.SeqMax(cfg)
	home := sw.HomeFunc(cfg, sw.DiagonalBlocks, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores := make([]int32, 2)
		w := mpi.NewWorld(2)
		w.Run(func(c *mpi.Comm) {
			n := hcmpinode.NewNode(c, hcmpinode.Config{Workers: 1})
			space := dddf.NewSpace(n, home, nil)
			n.Main(func(ctx *hc.Ctx) { scores[c.Rank()] = sw.RunDDDF(space, ctx, cfg, sw.DiagonalBlocks) })
			n.Close()
		})
		if scores[0] != want || scores[1] != want {
			b.Fatalf("scores %v want %d", scores, want)
		}
	}
}

// BenchmarkDistStealThroughput measures the distributed scheduler's
// migrate-execute pipeline: two netsim ranks, every frame seeded on
// rank 0, rank 1 feeding on steal-half grants. ns/op is the per-frame
// cost of the full protocol (request, harvest, grant, decode, execute,
// termination); migrated/op is the fraction of frames that crossed
// ranks.
func BenchmarkDistStealThroughput(b *testing.B) {
	var migrated int64
	var mu sync.Mutex
	hcmpi.Run(2, 1, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		s := hcmpi.NewDistScheduler(n, hcmpi.DistConfig{})
		s.Register("spin", func(*hcmpi.DistTaskCtx, []byte) {
			acc := 1
			for i := 0; i < 512; i++ {
				acc = acc*31 + i
			}
			if acc == 42 {
				panic("unreachable")
			}
		})
		if n.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				s.Submit("spin", nil)
			}
			b.ResetTimer()
		}
		if err := s.Run(ctx); err != nil {
			b.Errorf("rank %d: %v", n.Rank(), err)
		}
		if n.Rank() == 1 {
			mu.Lock()
			migrated += s.Stats().MigratedIn
			mu.Unlock()
		}
	})
	b.ReportMetric(float64(migrated)/float64(b.N), "migrated/op")
}

// BenchmarkDistUTSImbalanced runs the acceptance workload — a geometric
// UTS tree seeded entirely on rank 0 — at 1 rank and at 4 ranks with the
// distributed scheduler rebalancing it, and reports the 4-rank-over-
// 1-rank wall-clock speedup. The ranks are in-process goroutines, so the
// speedup converges to min(4, GOMAXPROCS) as cores become available; on
// a single-core host it sits just below 1 (protocol overhead with no
// parallelism to pay for it).
func BenchmarkDistUTSImbalanced(b *testing.B) {
	want, _ := uts.T1Med.SeqCount()
	run := func(ranks int) time.Duration {
		var total int64
		var mu sync.Mutex
		start := time.Now()
		w := mpi.NewWorld(ranks)
		w.Run(func(c *mpi.Comm) {
			n := hcmpinode.NewNode(c, hcmpinode.Config{Workers: 1})
			ctr := uts.RunHCMPI(n, uts.T1Med, uts.DefaultParams)
			n.Close()
			mu.Lock()
			total += ctr.Nodes
			mu.Unlock()
		})
		elapsed := time.Since(start)
		if total != want {
			b.Fatalf("%d ranks: counted %d nodes, want %d", ranks, total, want)
		}
		return elapsed
	}
	var t1, t4 time.Duration
	for i := 0; i < b.N; i++ {
		t1 += run(1)
		t4 += run(4)
	}
	b.ReportMetric(t1.Seconds()/float64(b.N)*1e3, "ms-1rank")
	b.ReportMetric(t4.Seconds()/float64(b.N)*1e3, "ms-4rank")
	b.ReportMetric(float64(t1)/float64(t4), "speedup")
}

// BenchmarkMPIMessage is the mpi rung's per-message cost with nothing
// above it: one goroutine posts an 8-byte Irecv on rank 1 and the
// matching Isend on rank 0 over the default netsim interconnect, waits
// on both and frees both. No hcmpi task, worker or sweep takes part, so
// what it times is the request, send-op and payload pools, the matching
// queues and their locks.
func BenchmarkMPIMessage(b *testing.B) {
	w := mpi.NewWorld(2)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	msg, buf := make([]byte, 8), make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c1.Irecv(buf, 0, 7)
		s := c0.Isend(msg, 1, 7)
		r.WaitStatus()
		s.WaitStatus()
		r.Free()
		s.Free()
	}
}

// BenchmarkTCPRoundTrip measures one Isend+Irecv ping-pong across the
// real TCP transport (a same-process two-rank loopback mesh; every
// message crosses actual sockets). This is the wire path's headline
// number: enqueue cost, writer coalescing, and pooled receive staging.
func BenchmarkTCPRoundTrip(b *testing.B) {
	addrs := make([]string, 2)
	{
		lns := make([]net.Listener, 2)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
		for _, ln := range lns {
			ln.Close()
		}
	}
	comms := make([]*mpi.Comm, 2)
	closers := make([]io.Closer, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, closer, err := mpi.Distributed(r, addrs)
			if err != nil {
				b.Error(err)
				return
			}
			comms[r], closers[r] = c, closer
		}(r)
	}
	wg.Wait()
	if b.Failed() {
		b.FailNow()
	}
	c0, c1 := comms[0], comms[1]
	msg := make([]byte, 64)
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c1.Irecv(buf, 0, 7)
		s := c0.Isend(msg, 1, 7)
		r.WaitStatus()
		s.WaitStatus()
		r.Free()
		s.Free()
	}
	b.StopTimer()
	for _, cl := range closers {
		cl.Close()
	}
}
