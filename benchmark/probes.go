package main

import (
	"time"

	"hcmpi"
	"hcmpi/internal/deque"
	"hcmpi/internal/hc"
	node "hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
	"hcmpi/internal/netsim"
	"hcmpi/internal/phaser"
	"hcmpi/internal/sw"
)

// Ladder probes: the same 8-byte round trip, message flood, 64 KiB
// stream and 4-rank allreduce, timed directly at each lower layer's
// public API, plus floor costs of the shared-memory layers. A layer's
// self time is its rung minus the rung below. Probes run on the traced
// pass only, after the workload's windows.
type probes struct {
	clockNS, dequeNS, spawnJoinNS, awaitNS float64
	netsimRTT50                            float64 // µs, like every RTT/p50 below
	mpiRTT50, mpiRTT99                     float64
	mpiRate, mpiStreamMBs, mpiAllreduce50  float64
	tcpRTT50, tcpStreamMBs                 float64
	hcmpiRTT50, hcmpiRate, hcmpiAllreduce  float64
	phaserStrict, phaserFuzzy, accum       float64
	dddfLocalNS, distFrameNS, swTileNS     float64
}

// runProbes measures every rung; -quick divides the iteration counts.
func runProbes(quick bool) *probes {
	n := func(full int) int {
		if quick {
			return max(full/quickDivisor, 64)
		}
		return full
	}
	pr := &probes{}
	pr.clockNS = perIter(n(200000), func(int) { _ = time.Since(time.Now()) })

	d, x := deque.NewDeque[int](), 0
	pr.dequeNS = perIter(n(1000000), func(int) {
		d.Push(&x)
		d.Pop()
	})

	rt := hc.New(2)
	rt.Root(func(ctx *hc.Ctx) {
		pr.spawnJoinNS = perIter(n(100000), func(int) {
			ctx.Finish(func(ctx *hc.Ctx) { ctx.Async(func(*hc.Ctx) {}) })
		})
		pr.awaitNS = perIter(n(100000), func(i int) {
			f := hc.NewDDF()
			ctx.Finish(func(ctx *hc.Ctx) {
				ctx.AsyncAwait(func(*hc.Ctx) {}, f)
				f.Put(ctx, i)
			})
		})
	})
	rt.Shutdown()

	pr.netsimRTT50 = netsimRTT(n(20000))

	w2 := mpi.NewWorld(2)
	rtt := mpiRTT(w2.Comm(0), w2.Comm(1), n(20000))
	pr.mpiRTT50, pr.mpiRTT99 = percentile(rtt, 50), percentile(rtt, 99)
	pr.mpiRate = mpiFlood(w2.Comm(0), w2.Comm(1), 8, floodDepth, n(200000))
	pr.mpiStreamMBs = mpiFlood(w2.Comm(0), w2.Comm(1), streamBytes, streamDepth, n(8000)) * streamBytes / 1e6
	w2.Close()

	w4 := mpi.NewWorld(allreduceRanks)
	pr.mpiAllreduce50 = mpiAllreduce(w4, n(10000))
	w4.Close()

	comms, closers := tcpMesh(2)
	pr.tcpRTT50 = percentile(mpiRTT(comms[0], comms[1], n(10000)), 50)
	pr.tcpStreamMBs = mpiFlood(comms[0], comms[1], streamBytes, streamDepth, n(8000)) * streamBytes / 1e6
	for _, cl := range closers {
		_ = cl.Close() // tcpMesh.Close always returns nil
	}

	// The hcmpi rungs are the workloads themselves, untraced and short.
	in := &inputs{}
	pp := pingpongWindow(in, n(5000), n(500), nil)
	pr.hcmpiRTT50 = percentile(nsToUS(pp.Lat), 50)
	fl := msgfloodWindow(in, max(n(51200), 256)/256*256, max(n(5120), 256)/256*256, nil)
	pr.hcmpiRate = float64(fl.Ops) / (float64(fl.WallNS) / 1e9)
	ar := allreduceWindow(in, n(5000), n(500), nil)
	pr.hcmpiAllreduce = percentile(nsToUS(ar.Lat), 50)

	pr.phaserStrict = phaserProbe(n(2000), false, func(nd *node.Node) *phaser.Phaser { return nd.PhaserCreate(node.Strict) })
	pr.phaserFuzzy = phaserProbe(n(2000), false, func(nd *node.Node) *phaser.Phaser { return nd.PhaserCreate(node.Fuzzy) })
	pr.accum = phaserProbe(n(2000), true, func(nd *node.Node) *phaser.Phaser { return nd.AccumCreate(mpi.OpSum, mpi.Int64) })

	pr.dddfLocalNS = dddfLocalProbe(n(50000))
	pr.distFrameNS = distFrameProbe(n(200000))

	cfg := sw.Config{InnerH: swInner, InnerW: swInner}
	a, b := make([]byte, swInner), make([]byte, swInner)
	top, left := make([]int32, swInner), make([]int32, swInner)
	pr.swTileNS = perIter(n(5000), func(int) { sw.ComputeTile(cfg, a, b, top, left, 0) })
	return pr
}

// perIter times n calls of f and returns nanoseconds per call.
func perIter(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func nsToUS(ns []int64) []float64 {
	us := make([]float64, len(ns))
	for i, x := range ns {
		us[i] = float64(x) / 1e3
	}
	return us
}

// netsimRTT times an 8-byte there-and-back on the bare network. Loopback
// delivers in the sender's goroutine, so a round trip is two nested
// calls; 16 are timed together to stay above the clock's own cost.
func netsimRTT(n int) float64 {
	const batch = 16
	nw := netsim.New(2, func(r int) int { return r }, netsim.Loopback)
	defer nw.Close()
	back := make(chan struct{}, 1) // one round trip is in flight at a time
	us := make([]float64, 0, n/batch)
	for i := 0; i < n/batch; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			nw.SendEx(0, 1, 8, func() {
				nw.SendEx(1, 0, 8, func() { back <- struct{}{} }, nil)
			}, nil)
			<-back
		}
		us = append(us, float64(time.Since(t0))/batch/1e3)
	}
	return median(us)
}

// mpiRTT ping-pongs 8 bytes between two endpoints and returns the sorted
// round-trip times in µs.
func mpiRTT(c0, c1 *mpi.Comm, n int) []float64 {
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 8)
		for i := 0; i < n; i++ {
			r := c1.Irecv(buf, 0, tagPing)
			r.WaitStatus()
			r.Free()
			s := c1.Isend(buf, 0, tagPong)
			s.WaitStatus()
			s.Free()
		}
	}()
	out, back := make([]byte, 8), make([]byte, 8)
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		s := c0.Isend(out, 1, tagPing)
		r := c0.Irecv(back, 1, tagPong)
		s.WaitStatus()
		r.WaitStatus()
		s.Free()
		r.Free()
		us[i] = float64(time.Since(t0)) / 1e3
	}
	<-done
	return sortedCopy(us)
}

// mpiFlood is the flood workload at the mpi layer: batches of depth
// messages of size bytes c0→c1, each batch closed by a 1-byte ack.
// It returns messages per second.
func mpiFlood(c0, c1 *mpi.Comm, size, depth, n int) float64 {
	done := make(chan struct{})
	go func() {
		defer close(done)
		bufs, reqs := make([][]byte, depth), make([]*mpi.Request, depth)
		for j := range bufs {
			bufs[j] = make([]byte, size)
		}
		sts, ack := make([]mpi.Status, depth), make([]byte, 1)
		for i := 0; i < n; i += depth {
			for j := range reqs {
				reqs[j] = c1.Irecv(bufs[j], 0, tagFlood)
			}
			mpi.WaitAllInto(sts, reqs...)
			for _, r := range reqs {
				r.Free()
			}
			c1.Send(ack, 0, tagAck)
		}
	}()
	bufs, ack := make([][]byte, depth), make([]byte, 1)
	for j := range bufs {
		bufs[j] = make([]byte, size)
	}
	reqs, sts := make([]*mpi.Request, depth), make([]mpi.Status, depth)
	t0 := time.Now()
	for i := 0; i < n; i += depth {
		for j := range reqs {
			reqs[j] = c0.Isend(bufs[j], 1, tagFlood)
		}
		mpi.WaitAllInto(sts, reqs...)
		for _, r := range reqs {
			r.Free()
		}
		c0.Recv(ack, 1, tagAck)
	}
	el := time.Since(t0)
	<-done
	return float64((n+depth-1)/depth*depth) / el.Seconds()
}

// mpiAllreduce returns the median µs of a 16×int64 Comm.Allreduce.
func mpiAllreduce(w *mpi.World, n int) float64 {
	us := make([]float64, n)
	eachRank(w.Size(), func(r int) {
		c, buf := w.Comm(r), make([]byte, allreduceWords*8)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			c.Allreduce(buf, mpi.Int64, mpi.OpSum)
			if r == 0 {
				us[i] = float64(time.Since(t0)) / 1e3
			}
		}
	})
	return median(us)
}

// phaserProbe is Table II on the real runtime: 4 ranks × 2 phased tasks
// cycling n phases; it returns rank 0's median µs per phase.
func phaserProbe(n int, accum bool, mk func(*node.Node) *phaser.Phaser) float64 {
	const tasks = 2
	us := make([]float64, n)
	s := openSession(allreduceRanks, false, nil, nil)
	s.run(func(r int, nd *node.Node, ctx *hc.Ctx) {
		ph := mk(nd)
		ctx.Finish(func(ctx *hc.Ctx) {
			for t := 0; t < tasks; t++ {
				timed := r == 0 && t == 0
				hcmpi.AsyncPhased(ctx, ph, phaser.SignalWait, func(_ *hc.Ctx, reg *phaser.Reg) {
					for i := 0; i < n; i++ {
						t0 := time.Now()
						if accum {
							reg.AccumNext(int64(1))
						} else {
							reg.Next()
						}
						if timed {
							us[i] = float64(time.Since(t0)) / 1e3
						}
					}
				})
			}
		})
	})
	s.close(nil)
	return median(us)
}

// dddfLocalProbe is a home-local put + await: the DDDF layer with no
// communication under it.
func dddfLocalProbe(n int) (ns float64) {
	s := openSession(1, false, func(int64) int { return 0 }, nil)
	s.run(func(_ int, _ *node.Node, ctx *hc.Ctx) {
		val := make([]byte, dddfBytes)
		ns = perIter(n, func(i int) {
			h := s.spaces[0].Handle(int64(i))
			ctx.Finish(func(ctx *hc.Ctx) {
				s.spaces[0].AsyncAwait(ctx, func(*hc.Ctx) {}, h)
				h.Put(ctx, val)
			})
		})
	})
	s.close(nil)
	return ns
}

// distFrameProbe is the scheduler's floor: one rank, n frames with a
// no-op handler, nothing to steal.
func distFrameProbe(n int) (ns float64) {
	s := openSession(1, false, nil, nil)
	sched := hcmpi.NewDistScheduler(s.nodes[0], hcmpi.DistConfig{})
	sched.Register("nop", func(*hcmpi.DistTaskCtx, []byte) {})
	for i := 0; i < n; i++ {
		sched.Submit("nop", nil)
	}
	s.run(func(_ int, _ *node.Node, ctx *hc.Ctx) {
		t0 := time.Now()
		if err := sched.Run(ctx); err != nil {
			panic("distsched probe: " + err.Error()) // one rank: nothing can fail
		}
		ns = float64(time.Since(t0)) / float64(n)
	})
	s.close(nil)
	return ns
}
