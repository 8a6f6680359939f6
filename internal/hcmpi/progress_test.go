package hcmpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
	"hcmpi/internal/mpi/mpitest"
	"hcmpi/internal/trace"
)

// seedRoundTripAllocs is what one Send/Recv round trip between two ranks
// allocated, process-wide, before waits became help-first (four
// operations at nine allocations each: request, DDF, status, worklist
// and free-list nodes, and the finish scope, registration, waiter slot
// and released task frame of finish { async await }).
const seedRoundTripAllocs = 36

// eventually polls cond until it holds or five seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// The sweep is shared: four computation workers per rank, all of them
// blocking in Send, Recv or Allreduce (so all of them stealing sweeps),
// and the dedicated worker contend for the try-lock while 10 000
// point-to-point operations, a listener and a stream of collectives go
// through each rank. Everything must complete exactly once: payloads are
// checked in order, every listener message is counted by id, a request
// completed twice panics in completeLocal, and under -tags hcmpi_debug
// the lifecycle assertions fire on any task handled by two sweeps.
//
// The exchange is symmetric — every task sends, then receives from its
// opposite number — with twice as many blocking tasks as workers, so the
// waits also suspend tasks and resume them out of order.
func TestChaosProgressContention(t *testing.T) {
	const (
		workers     = 4
		tasks       = 8
		tagPing     = -102
		pingEach    = 5   // every pingEach iterations a task adds a listener message
		collectives = 100 // Allreduces in flight meanwhile
	)
	iters := 10000 / (2 * tasks) // a Send and a Recv each: 10 000 operations per rank in all
	if testing.Short() {
		iters = 100
	}
	pingsPerTask := (iters + pingEach - 1) / pingEach

	w := mpi.NewWorld(2)
	w.Run(func(c *mpi.Comm) {
		n := NewNode(c, Config{Workers: workers})
		seen := make([]atomic.Int32, tasks*pingsPerTask)
		var pings atomic.Int64
		n.Listen(tagPing, func(_ int, payload []byte) {
			seen[binary.LittleEndian.Uint32(payload)].Add(1)
			pings.Add(1)
		})
		n.Main(func(ctx *hc.Ctx) {
			peer := 1 - n.Rank()
			n.Barrier(ctx) // listeners installed on both ranks
			// The collectives run, and are published by sweeps, while the
			// point-to-point traffic flows. They are issued up front because
			// every rank must issue them in one order.
			colls := make([]*Request, collectives)
			for i := range colls {
				colls[i] = n.IAllreduce(mpi.EncodeInt64(int64(i)), mpi.Int64, mpi.OpSum)
			}
			ctx.Finish(func(ctx *hc.Ctx) {
				for k := 0; k < tasks; k++ {
					k := k
					ctx.Async(func(ctx *hc.Ctx) {
						out, in := make([]byte, 8), make([]byte, 8)
						for i := 0; i < iters; i++ {
							want := uint64(k)<<32 | uint64(i)
							binary.LittleEndian.PutUint64(out, want)
							if st := n.Send(ctx, out, peer, 100+k); st.Err != nil {
								t.Errorf("send k=%d i=%d: %v", k, i, st.Err)
								return
							}
							if i%pingEach == 0 {
								id := make([]byte, 4)
								binary.LittleEndian.PutUint32(id, uint32(k*pingsPerTask+i/pingEach))
								n.SendReserved(id, peer, tagPing)
							}
							st := n.Recv(ctx, in, peer, 100+k)
							if st.Err != nil || st.Bytes != 8 || binary.LittleEndian.Uint64(in) != want {
								t.Errorf("recv k=%d i=%d: %+v payload %x", k, i, st, in)
								return
							}
						}
					})
				}
			})
			for i, st := range n.WaitAll(ctx, colls...) {
				if st.Err != nil || mpi.DecodeInt64(st.Payload) != int64(2*i) {
					t.Errorf("allreduce %d: %+v", i, st)
				}
			}
		})
		eventually(t, "every listener message", func() bool { return pings.Load() >= int64(len(seen)) })
		for id := range seen {
			if got := seen[id].Load(); got != 1 {
				t.Errorf("rank %d: listener message %d handled %d times", n.Rank(), id, got)
			}
		}
		st := n.StatsSnapshot()
		if st.Dispatched != st.Allocated+st.Recycled {
			t.Errorf("rank %d: dispatched %d != allocated %d + recycled %d",
				n.Rank(), st.Dispatched, st.Allocated, st.Recycled)
		}
		if st.ProgressStolen == 0 {
			t.Errorf("rank %d: no sweep was driven by a computation worker (%+v)", n.Rank(), st)
		}
		if st.Polls < st.ProgressStolen {
			t.Errorf("rank %d: %d polls < %d stolen sweeps; a stolen sweep is a poll", n.Rank(), st.Polls, st.ProgressStolen)
		}
		if got := n.Metrics().Counter("hc_suspensions").Load(); got == 0 {
			t.Errorf("rank %d: %d blocking tasks on %d workers and none was suspended", n.Rank(), tasks, workers)
		}
		n.Close()
	})
}

// Close returns while the dedicated worker is blocked quiet: the stop
// flag is followed by a kick, since a quiet worker has no timer to wake
// it. The job's traffic and Close's barrier, taken here inside the job,
// are driven by the computation workers' own sweeps; the dedicated
// worker is then left to sleep quiet before Close's second half
// (shutdown) stops it.
func TestCloseAfterStolenSweeps(t *testing.T) {
	for round := 0; round < 5; round++ {
		w := mpi.NewWorld(2)
		done := make(chan StatsSnapshot, 2)
		go w.Run(func(c *mpi.Comm) {
			n := NewNode(c, Config{Workers: 2})
			n.Main(func(ctx *hc.Ctx) {
				buf := make([]byte, 1)
				if n.Rank() == 0 {
					n.Send(ctx, buf, 1, 0)
				} else {
					n.Recv(ctx, buf, 0, 0)
				}
				n.Barrier(ctx) // Close's barrier: no peer sends after it
			})
			waitQuiet(t, n)
			n.shutdown()
			done <- n.StatsSnapshot()
		})
		for r := 0; r < 2; r++ {
			select {
			case st := <-done:
				if st.ProgressStolen == 0 {
					t.Errorf("round %d: no stolen sweep before Close returned (%+v)", round, st)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: Close did not return", round)
			}
		}
	}
}

// A burst on one listener tag is drained in batches: once 160 messages
// are queued behind a listener, ten sweeps deliver them (sixteen per
// sweep), where one message per sweep used to cost 160 passes over the
// active set. Only the sweeps that deliver are counted — comm_polls is
// stamped before a sweep reaches its listeners, so it names the sweep a
// callback runs in — because empty ones before and between them depend on
// who happens to be idle.
func TestListenerDrainsBurstInBatches(t *testing.T) {
	const (
		burst   = 10 * listenBatch
		tagData = -103
	)
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		switch n.Rank() {
		case 0:
			reqs := make([]*Request, burst)
			for i := range reqs {
				reqs[i] = n.SendReserved([]byte{byte(i)}, 1, tagData)
			}
			n.WaitAll(ctx, reqs...) // delivered: all queued, unexpected, at rank 1
			n.Send(ctx, nil, 1, 1)
		case 1:
			n.Recv(ctx, nil, 0, 1)
			// The callbacks run one at a time, under the sweep lock.
			var got, delivering atomic.Int64
			lastSweep := int64(-1)
			n.Listen(tagData, func(_ int, payload []byte) {
				if int64(payload[0]) != got.Load()%256 {
					t.Errorf("message %d arrived at position %d", payload[0], got.Load())
				}
				if sweep := n.StatsSnapshot().Polls; sweep != lastSweep {
					lastSweep = sweep
					delivering.Add(1)
				}
				got.Add(1)
			})
			eventually(t, "the burst", func() bool { return got.Load() == burst })
			if d := delivering.Load(); d < burst/listenBatch || d > burst/listenBatch+2 {
				t.Errorf("%d queued messages were delivered by %d sweeps, want %d", burst, d, burst/listenBatch)
			}
		}
	})
}

// Hundreds of collectives in flight at once: each is a schedule in the
// ACTIVE set, started in issue order and advanced by every sweep side by
// side with the others, and each still completes with its own result.
func TestManyQueuedCollectives(t *testing.T) {
	const queued = 300
	runNodes(t, 2, 2, func(n *Node, ctx *hc.Ctx) {
		reqs := make([]*Request, queued)
		for i := range reqs {
			reqs[i] = n.IAllreduce(mpi.EncodeInt64(int64(i)), mpi.Int64, mpi.OpSum)
		}
		for i, st := range n.WaitAll(ctx, reqs...) {
			if st.Err != nil || mpi.DecodeInt64(st.Payload) != int64(2*i) {
				t.Errorf("allreduce %d: %+v", i, st)
			}
		}
	})
}

// A collective that overruns OpTimeout fails with ErrTimeout through the
// ordinary deadline path: its schedule is aborted, which withdraws the
// receive its round had posted, and the collectives after it — a later
// Allreduce, Close's barrier — still complete on both transports.
func TestCollectiveTimeoutWithdrawsSchedule(t *testing.T) {
	for _, b := range mpitest.Backends() {
		t.Run(b.Name, func(t *testing.T) {
			peerArrived, checked := make(chan struct{}), make(chan struct{})
			b.Run(t, 2, func(c *mpi.Comm) {
				n := NewNode(c, Config{Workers: 1, OpTimeout: 50 * time.Millisecond})
				n.Main(func(ctx *hc.Ctx) {
					if n.Rank() == 0 {
						st := n.Wait(ctx, n.IBarrier())
						if !errors.Is(st.Err, mpi.ErrTimeout) {
							t.Errorf("barrier with an absent peer: err=%v, want ErrTimeout", st.Err)
						}
						if got := n.StatsSnapshot().Timeouts; got != 1 {
							t.Errorf("Timeouts = %d, want 1", got)
						}
						<-peerArrived
						// The peer's message for the barrier finds no posted
						// receive to match: it waits in the unexpected queue.
						eventually(t, "the late barrier message left unmatched", func() bool { return c.PendingUnexpected() == 1 })
						close(checked)
					} else {
						time.Sleep(150 * time.Millisecond)
						// Pairs with rank 0's timed-out barrier, whose message is
						// waiting here.
						if st := n.Wait(ctx, n.IBarrier()); st.Err != nil {
							t.Errorf("late barrier: %v", st.Err)
						}
						close(peerArrived)
						<-checked
					}
					sum := n.Allreduce(ctx, mpi.EncodeInt64(int64(n.Rank()+1)), mpi.Int64, mpi.OpSum)
					if len(sum) != 8 || mpi.DecodeInt64(sum) != 3 {
						t.Errorf("rank %d: allreduce after the timeout = %v, want 3", n.Rank(), sum)
					}
				})
				n.Close()
			})
		})
	}
}

// Two tasks per rank issue collectives of every kind, blocking and
// non-blocking, interleaved with point-to-point traffic, on 4 ranks of 2
// workers. The tasks take turns in a fixed order, so every rank starts
// the collectives in the same sequence, but a non-blocking one hands the
// turn on as soon as it is issued: several schedules advance at once,
// beside the sends and receives, and every result is checked.
func TestConcurrentTasksMixCollectivesWithP2P(t *testing.T) {
	const (
		ranks = 4
		tasks = 2
		slots = 60
	)
	runNodes(t, ranks, 2, func(n *Node, ctx *hc.Ctx) {
		me, p := n.Rank(), n.Size()
		turn := make([]*Request, slots+1)
		for i := range turn {
			turn[i] = n.RequestCreate()
		}
		n.CompleteRequest(ctx, turn[0], &Status{})
		ctx.Finish(func(ctx *hc.Ctx) {
			for k := 0; k < tasks; k++ {
				k := k
				ctx.Async(func(ctx *hc.Ctx) {
					out, in := make([]byte, 8), make([]byte, 8)
					for i := k; i < slots; i += tasks {
						n.Wait(ctx, turn[i])
						pass := func() { n.CompleteRequest(ctx, turn[i+1], &Status{}) }
						collectiveSlot(t, n, ctx, i, pass)
						binary.LittleEndian.PutUint64(out, uint64(me<<16|i))
						if st := n.Send(ctx, out, (me+1)%p, 10+k); st.Err != nil {
							t.Errorf("rank %d slot %d: send: %v", me, i, st.Err)
						}
						from := (me + p - 1) % p
						if st := n.Recv(ctx, in, from, 10+k); st.Err != nil || binary.LittleEndian.Uint64(in) != uint64(from<<16|i) {
							t.Errorf("rank %d slot %d: recv %+v payload %x", me, i, st, in)
						}
					}
				})
			}
		})
	})
}

// collectiveSlot runs slot i's collective and checks its result; pass
// hands the turn to the next slot, as soon as the collective is issued.
func collectiveSlot(t *testing.T, n *Node, ctx *hc.Ctx, i int, pass func()) {
	me, p := n.Rank(), n.Size()
	root := i % p
	switch i % 10 {
	case 0:
		r := n.IAllreduce(mpi.EncodeInt64(int64(me+i)), mpi.Int64, mpi.OpSum)
		pass()
		if st := n.Wait(ctx, r); st.Err != nil || mpi.DecodeInt64(st.Payload) != int64(p*i+p*(p-1)/2) {
			t.Errorf("rank %d slot %d: iallreduce %+v", me, i, st)
		}
	case 1:
		parts := n.Gather(ctx, []byte{byte(me), byte(i)}, root)
		pass()
		for r := 0; me == root && r < p; r++ {
			if !bytes.Equal(parts[r], []byte{byte(r), byte(i)}) {
				t.Errorf("rank %d slot %d: gather[%d] = %v", me, i, r, parts[r])
			}
		}
	case 2:
		buf := make([]byte, 8)
		if me == root {
			copy(buf, mpi.EncodeInt64(int64(1000*i+root)))
		}
		r := n.IBcast(buf, root)
		pass()
		if st := n.Wait(ctx, r); st.Err != nil || mpi.DecodeInt64(buf) != int64(1000*i+root) {
			t.Errorf("rank %d slot %d: ibcast %+v %d", me, i, st, mpi.DecodeInt64(buf))
		}
	case 3:
		got := mpi.DecodeInt64(n.Scan(ctx, mpi.EncodeInt64(int64(me+1)), mpi.Int64, mpi.OpSum))
		pass()
		if got != int64((me+1)*(me+2)/2) {
			t.Errorf("rank %d slot %d: scan %d", me, i, got)
		}
	case 4:
		r := n.IBarrier()
		pass()
		if st := n.Wait(ctx, r); st.Err != nil {
			t.Errorf("rank %d slot %d: ibarrier %v", me, i, st.Err)
		}
	case 5:
		parts := n.Allgather(ctx, []byte{byte(me), byte(i)})
		pass()
		for r := 0; r < p; r++ {
			if !bytes.Equal(parts[r], []byte{byte(r), byte(i)}) {
				t.Errorf("rank %d slot %d: allgather[%d] = %v", me, i, r, parts[r])
			}
		}
	case 6:
		res := n.Reduce(ctx, mpi.EncodeInt64(int64(me*i)), mpi.Int64, mpi.OpMax, root)
		pass()
		if me == root && mpi.DecodeInt64(res) != int64((p-1)*i) {
			t.Errorf("rank %d slot %d: reduce %v", me, i, res)
		}
	case 7:
		var parts [][]byte
		if me == root {
			for r := 0; r < p; r++ {
				parts = append(parts, []byte{byte(r), byte(i)})
			}
		}
		got := n.Scatter(ctx, parts, root)
		pass()
		if !bytes.Equal(got, []byte{byte(me), byte(i)}) {
			t.Errorf("rank %d slot %d: scatter %v", me, i, got)
		}
	case 8:
		got := mpi.DecodeInt64(n.Allreduce(ctx, mpi.EncodeInt64(int64(me-i)), mpi.Int64, mpi.OpMin))
		pass()
		if got != int64(-i) {
			t.Errorf("rank %d slot %d: allreduce min %d", me, i, got)
		}
	case 9:
		buf := make([]byte, 8)
		if me == root {
			copy(buf, mpi.EncodeInt64(int64(-i)))
		}
		n.Bcast(ctx, buf, root)
		pass()
		if mpi.DecodeInt64(buf) != int64(-i) {
			t.Errorf("rank %d slot %d: bcast %d", me, i, mpi.DecodeInt64(buf))
		}
	}
}

// Allocation pins for the help-first wait: waiting on a completed
// request touches nothing but its DDF, and a round trip no longer pays
// for finish { async await } on waits that complete while helping.
func TestWaitAllocFree(t *testing.T) {
	const runs = 300
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		buf := make([]byte, 8)
		if n.Rank() == 1 {
			for i := 0; i < runs+1; i++ { // AllocsPerRun adds a warm-up run
				n.Recv(ctx, buf, 0, 1)
				n.Send(ctx, buf, 0, 2)
			}
			return
		}
		if a := testing.AllocsPerRun(runs, func() {
			n.Send(ctx, buf, 1, 1)
			n.Recv(ctx, buf, 1, 2)
		}); a >= seedRoundTripAllocs {
			t.Errorf("Send/Recv round trip: %v allocs, want fewer than the %d it took before", a, seedRoundTripAllocs)
		}
		r := n.Isend(buf, 1, 3)
		n.Wait(ctx, r)
		if a := testing.AllocsPerRun(100, func() { n.Wait(ctx, r) }); a != 0 {
			t.Errorf("Wait on a completed request: %v allocs, want 0", a)
		}
	})
}

// allreduceAllocs is the budget of one steady-state 2-rank Allreduce of
// 16 int64, process-wide: on each rank the result, its Status and the
// request; the worklist and free-list nodes of the comm task; and the two
// allocations of a wait that outlasts its sweep budget (hc.Ctx.Block).
// The schedule itself allocates nothing: a comm task keeps its schedule,
// request lists included, across recycling, and the schedule borrows
// its scratch buffer from the transport's pool. Measured: 13–14. While collectives ran on a runner
// goroutine fed through a queue the same Allreduce took 25–27 (five
// measurements).
const allreduceAllocs = 14

// Allocation pin for collectives: see allreduceAllocs.
func TestAllreduceAllocFree(t *testing.T) {
	const runs, warm = 300, 20
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		buf := make([]byte, 16*8)
		allreduce := func() { n.Allreduce(ctx, buf, mpi.Int64, mpi.OpSum) }
		for i := 0; i < warm; i++ {
			allreduce()
		}
		// Both ranks run runs+1 Allreduces (AllocsPerRun adds a warm-up
		// run); rank 0 counts the allocations of both.
		if n.Rank() == 1 {
			for i := 0; i < runs+1; i++ {
				allreduce()
			}
			return
		}
		if a := testing.AllocsPerRun(runs, allreduce); a > allreduceAllocs {
			t.Errorf("2-rank Allreduce: %v allocs, want at most %d", a, allreduceAllocs)
		}
	})
}

// A traced sweep driven by a computation worker shows up on that
// worker's timeline, not on the comm track.
func TestStolenSweepTracesOnDriverTrack(t *testing.T) {
	tr := trace.New(trace.Config{})
	w := mpi.NewWorld(2, mpi.WithTracer(tr))
	w.Run(func(c *mpi.Comm) {
		n := NewNode(c, Config{Workers: 1, Tracer: tr})
		n.Main(func(ctx *hc.Ctx) {
			buf := make([]byte, 1)
			for i := 0; i < 50; i++ {
				if n.Rank() == 0 {
					n.Send(ctx, buf, 1, 0)
				} else {
					n.Recv(ctx, buf, 0, 0)
				}
			}
		})
		if n.StatsSnapshot().ProgressStolen == 0 {
			t.Errorf("rank %d: no stolen sweep in 50 blocking operations", n.Rank())
		}
		n.Close()
	})
	busyOnCompute := 0
	for _, te := range tr.Snapshot() {
		if te.Kind != trace.TrackCompute {
			continue
		}
		for _, e := range te.Events {
			if e.Kind == trace.EvCommBusyStart {
				busyOnCompute++
			}
		}
	}
	if busyOnCompute == 0 {
		t.Error("no comm.op slice on any computation-worker track")
	}
}
