package hcmpi

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
	"hcmpi/internal/netsim"
)

// runNodes drives an SPMD HCMPI job: ranks nodes, each with workers
// computation workers plus its communication worker.
func runNodes(t *testing.T, ranks, workers int, body func(n *Node, ctx *hc.Ctx)) {
	t.Helper()
	runNodesNet(t, ranks, workers, netsim.Loopback, body)
}

func runNodesNet(t *testing.T, ranks, workers int, p netsim.Params, body func(n *Node, ctx *hc.Ctx)) {
	t.Helper()
	w := mpi.NewWorld(ranks, mpi.WithNetwork(p))
	w.Run(func(c *mpi.Comm) {
		n := NewNode(c, Config{Workers: workers})
		n.Main(func(ctx *hc.Ctx) { body(n, ctx) })
		n.Close()
	})
}

func TestSendRecvBlocking(t *testing.T) {
	runNodes(t, 2, 2, func(n *Node, ctx *hc.Ctx) {
		switch n.Rank() {
		case 0:
			n.Send(ctx, []byte("ping"), 1, 7)
		case 1:
			buf := make([]byte, 8)
			st := n.Recv(ctx, buf, 0, 7)
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 4 || string(buf[:4]) != "ping" {
				t.Errorf("recv status %+v buf %q", st, buf[:st.Bytes])
			}
		}
	})
}

// Paper Fig. 3: a finish around HCMPI_Irecv implements HCMPI_Recv.
func TestFinishAroundIrecv(t *testing.T) {
	runNodes(t, 2, 2, func(n *Node, ctx *hc.Ctx) {
		switch n.Rank() {
		case 0:
			n.Isend([]byte{42}, 1, 0)
		case 1:
			buf := make([]byte, 1)
			var asyncRan atomic.Bool
			ctx.Finish(func(ctx *hc.Ctx) {
				req := n.Irecv(buf, 0, 0)
				ctx.AsyncAwait(func(*hc.Ctx) {}, req.DDF())
				ctx.Async(func(*hc.Ctx) { asyncRan.Store(true) }) // overlapped work
			})
			// Irecv must be complete after finish.
			if buf[0] != 42 || !asyncRan.Load() {
				t.Errorf("after finish: buf=%d asyncRan=%v", buf[0], asyncRan.Load())
			}
		}
	})
}

// Paper Fig. 4: async AWAIT(r) IN(recv_buf) — a data-driven task keyed on
// the request handle.
func TestAwaitModel(t *testing.T) {
	runNodes(t, 2, 2, func(n *Node, ctx *hc.Ctx) {
		switch n.Rank() {
		case 0:
			n.Isend([]byte("data"), 1, 3)
		case 1:
			buf := make([]byte, 4)
			done := make(chan string, 1)
			ctx.Finish(func(ctx *hc.Ctx) {
				req := n.Irecv(buf, 0, 3)
				ctx.AsyncAwait(func(*hc.Ctx) {
					done <- string(buf)
				}, req.DDF())
			})
			if got := <-done; got != "data" {
				t.Errorf("await task read %q", got)
			}
		}
	})
}

// Paper Fig. 5: HCMPI_Wait + HCMPI_Get_count.
func TestWaitAndStatusModel(t *testing.T) {
	runNodes(t, 2, 2, func(n *Node, ctx *hc.Ctx) {
		switch n.Rank() {
		case 0:
			n.Isend(mpi.EncodeInt64s([]int64{1, 2, 3, 4}), 1, 0)
		case 1:
			buf := make([]byte, 64)
			req := n.Irecv(buf, 0, 0)
			st := n.Wait(ctx, req)
			if count := st.CountOf(mpi.Int64); count != 4 {
				t.Errorf("Get_count = %d want 4", count)
			}
			// HCMPI_GET_STATUS after completion works (DDF_GET).
			st2, err := req.GetStatus()
			if err != nil || st2.Bytes != 32 {
				t.Errorf("GetStatus = %+v, %v", st2, err)
			}
		}
	})
}

func TestGetStatusBeforeCompletionIsError(t *testing.T) {
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		if n.Rank() != 1 {
			n.Barrier(ctx)
			n.Isend([]byte{1}, 1, 0)
			return
		}
		buf := make([]byte, 1)
		req := n.Irecv(buf, 0, 0)
		if _, err := req.GetStatus(); err == nil {
			t.Error("GetStatus before completion did not error")
		}
		n.Barrier(ctx)
		n.Wait(ctx, req)
	})
}

func TestWaitAllAndWaitAny(t *testing.T) {
	runNodesNet(t, 2, 2, netsim.Params{InterLatency: 100 * time.Microsecond}, func(n *Node, ctx *hc.Ctx) {
		const k = 5
		switch n.Rank() {
		case 0:
			for i := 0; i < k; i++ {
				n.Isend([]byte{byte(i)}, 1, i)
			}
		case 1:
			bufs := make([][]byte, k)
			reqs := make([]*Request, k)
			for i := 0; i < k; i++ {
				bufs[i] = make([]byte, 1)
				reqs[i] = n.Irecv(bufs[i], 0, i)
			}
			i, st := n.WaitAny(ctx, reqs...)
			if st == nil || bufs[i][0] != byte(i) {
				t.Errorf("WaitAny i=%d st=%+v", i, st)
			}
			sts := n.WaitAll(ctx, reqs...)
			for j := range sts {
				if bufs[j][0] != byte(j) {
					t.Errorf("WaitAll buf[%d]=%d", j, bufs[j][0])
				}
			}
			if _, ok := n.TestAll(reqs...); !ok {
				t.Error("TestAll after WaitAll is false")
			}
			if _, _, ok := n.TestAny(reqs...); !ok {
				t.Error("TestAny after WaitAll is false")
			}
		}
	})
}

func TestTestNonBlocking(t *testing.T) {
	runNodesNet(t, 2, 1, netsim.Params{InterLatency: 2 * time.Millisecond}, func(n *Node, ctx *hc.Ctx) {
		if n.Rank() == 0 {
			n.Send(ctx, []byte{9}, 1, 0)
			return
		}
		buf := make([]byte, 1)
		req := n.Irecv(buf, 0, 0)
		if _, ok := n.Test(req); ok {
			t.Error("Test true before message could arrive")
		}
		st := n.Wait(ctx, req)
		if st.Bytes != 1 {
			t.Errorf("status %+v", st)
		}
	})
}

// Paper Fig. 6: async A(); B(); HCMPI_Barrier(); C() — A may cross the
// barrier, B must precede it, C must follow it on all ranks.
func TestBarrierModel(t *testing.T) {
	const ranks = 4
	var bDone, cStarted atomic.Int32
	runNodes(t, ranks, 2, func(n *Node, ctx *hc.Ctx) {
		ctx.Async(func(*hc.Ctx) { /* A: unordered wrt barrier */ })
		bDone.Add(1) // B
		n.Barrier(ctx)
		if got := bDone.Load(); got != ranks {
			t.Errorf("rank %d passed barrier with only %d B()s done", n.Rank(), got)
		}
		cStarted.Add(1) // C
	})
	if cStarted.Load() != ranks {
		t.Fatalf("C ran on %d ranks", cStarted.Load())
	}
}

func TestCollectivesThroughCommWorker(t *testing.T) {
	const ranks = 4
	runNodes(t, ranks, 2, func(n *Node, ctx *hc.Ctx) {
		// Bcast
		buf := make([]byte, 8)
		if n.Rank() == 1 {
			copy(buf, mpi.EncodeInt64(777))
		}
		n.Bcast(ctx, buf, 1)
		if mpi.DecodeInt64(buf) != 777 {
			t.Errorf("bcast rank %d got %d", n.Rank(), mpi.DecodeInt64(buf))
		}
		// Allreduce
		sum := mpi.DecodeInt64(n.Allreduce(ctx, mpi.EncodeInt64(int64(n.Rank()+1)), mpi.Int64, mpi.OpSum))
		if sum != 10 {
			t.Errorf("allreduce = %d", sum)
		}
		// Reduce
		r := n.Reduce(ctx, mpi.EncodeInt64(2), mpi.Int64, mpi.OpProd, 0)
		if n.Rank() == 0 && mpi.DecodeInt64(r) != 16 {
			t.Errorf("reduce = %d", mpi.DecodeInt64(r))
		}
		if n.Rank() != 0 && r != nil {
			t.Error("non-root reduce returned data")
		}
		// Scan
		s := mpi.DecodeInt64(n.Scan(ctx, mpi.EncodeInt64(1), mpi.Int64, mpi.OpSum))
		if s != int64(n.Rank()+1) {
			t.Errorf("scan rank %d = %d", n.Rank(), s)
		}
		// Gather / Allgather / Scatter
		g := n.Gather(ctx, mpi.EncodeInt64(int64(n.Rank())), 2)
		if n.Rank() == 2 {
			for r := 0; r < ranks; r++ {
				if mpi.DecodeInt64(g[r]) != int64(r) {
					t.Errorf("gather[%d] = %d", r, mpi.DecodeInt64(g[r]))
				}
			}
		}
		ag := n.Allgather(ctx, mpi.EncodeInt64(int64(n.Rank()*3)))
		for r := 0; r < ranks; r++ {
			if mpi.DecodeInt64(ag[r]) != int64(r*3) {
				t.Errorf("allgather[%d] = %d", r, mpi.DecodeInt64(ag[r]))
			}
		}
		var parts [][]byte
		if n.Rank() == 0 {
			parts = make([][]byte, ranks)
			for r := range parts {
				parts[r] = mpi.EncodeInt64(int64(100 + r))
			}
		}
		mine := n.Scatter(ctx, parts, 0)
		if mpi.DecodeInt64(mine) != int64(100+n.Rank()) {
			t.Errorf("scatter rank %d got %d", n.Rank(), mpi.DecodeInt64(mine))
		}
	})
}

func TestCommTaskRecycling(t *testing.T) {
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		const msgs = 200
		switch n.Rank() {
		case 0:
			for i := 0; i < msgs; i++ {
				n.Send(ctx, []byte{byte(i)}, 1, 0)
			}
		case 1:
			buf := make([]byte, 1)
			for i := 0; i < msgs; i++ {
				n.Recv(ctx, buf, 0, 0)
			}
		}
		n.Barrier(ctx)
		st := n.StatsSnapshot()
		if st.Recycled == 0 {
			t.Errorf("rank %d: no comm tasks were recycled (allocated=%d)", n.Rank(), st.Allocated)
		}
		if st.Allocated > 64 {
			t.Errorf("rank %d: %d fresh allocations for %d ops; free-list not working", n.Rank(), st.Allocated, msgs)
		}
	})
}

func TestListenHandlesConcurrentRequests(t *testing.T) {
	const tagPing = -101
	const ranks = 3
	runNodes(t, ranks, 2, func(n *Node, ctx *hc.Ctx) {
		var got atomic.Int64
		n.Listen(tagPing, func(src int, payload []byte) {
			got.Add(int64(payload[0]))
		})
		n.Barrier(ctx) // listeners installed everywhere
		for r := 0; r < ranks; r++ {
			if r != n.Rank() {
				n.SendReserved([]byte{1}, r, tagPing)
			}
		}
		// Wait until every peer's ping arrived.
		deadline := time.Now().Add(5 * time.Second)
		for got.Load() < ranks-1 {
			if time.Now().After(deadline) {
				t.Errorf("rank %d received %d pings", n.Rank(), got.Load())
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		n.Barrier(ctx)
	})
}

func TestOverlapComputationWithCommunication(t *testing.T) {
	// The HCMPI pitch: computation workers stay busy while communication
	// is in flight.
	runNodesNet(t, 2, 2, netsim.Params{InterLatency: 3 * time.Millisecond}, func(n *Node, ctx *hc.Ctx) {
		switch n.Rank() {
		case 0:
			n.Isend([]byte{1}, 1, 0)
		case 1:
			buf := make([]byte, 1)
			var computed atomic.Int64
			ctx.Finish(func(ctx *hc.Ctx) {
				req := n.Irecv(buf, 0, 0)
				ctx.AsyncAwait(func(*hc.Ctx) {}, req.DDF())
				for i := 0; i < 32; i++ {
					ctx.Async(func(*hc.Ctx) { computed.Add(1) })
				}
			})
			if computed.Load() != 32 {
				t.Errorf("computed %d tasks during communication", computed.Load())
			}
			if buf[0] != 1 {
				t.Error("message not received")
			}
		}
	})
}

func TestCommTaskFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(commTask{}); size%64 != 0 {
		t.Errorf("commTask is %d bytes; resize its padding to a multiple of the 64-byte cache line", size)
	}
}

func TestCommStateString(t *testing.T) {
	states := []CommState{StateAvailable, StateAllocated, StatePrescribed, StateActive, StateCompleted}
	want := []string{"AVAILABLE", "ALLOCATED", "PRESCRIBED", "ACTIVE", "COMPLETED"}
	for i, s := range states {
		if s.String() != want[i] {
			t.Errorf("state %d = %q", i, s.String())
		}
	}
	if CommState(99).String() == "" {
		t.Error("unknown state string empty")
	}
}

func TestManyNodesManyWorkers(t *testing.T) {
	// Ring exchange across 5 nodes with 3 workers each.
	const ranks = 5
	runNodes(t, ranks, 3, func(n *Node, ctx *hc.Ctx) {
		next := (n.Rank() + 1) % ranks
		prev := (n.Rank() - 1 + ranks) % ranks
		buf := make([]byte, 8)
		req := n.Irecv(buf, prev, 0)
		n.Isend(mpi.EncodeInt64(int64(n.Rank())), next, 0)
		n.Wait(ctx, req)
		if mpi.DecodeInt64(buf) != int64(prev) {
			t.Errorf("rank %d got %d want %d", n.Rank(), mpi.DecodeInt64(buf), prev)
		}
	})
}

func TestHCMPICancelPostedRecv(t *testing.T) {
	runNodes(t, 2, 2, func(n *Node, ctx *hc.Ctx) {
		if n.Rank() != 1 {
			n.Barrier(ctx)
			return
		}
		buf := make([]byte, 1)
		req := n.Irecv(buf, 0, 7) // never sent
		// Give the comm worker time to make the operation ACTIVE.
		for {
			if n.StatsSnapshot().Recvs > 0 {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		if !n.Cancel(ctx, req) {
			t.Error("Cancel of unmatched recv failed")
		}
		st := n.Wait(ctx, req)
		if !st.Cancelled {
			t.Errorf("status %+v, want Cancelled", st)
		}
		n.Barrier(ctx)
	})
}

func TestHCMPICancelCompletedIsNoop(t *testing.T) {
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		switch n.Rank() {
		case 0:
			n.Send(ctx, []byte{1}, 1, 0)
		case 1:
			buf := make([]byte, 1)
			req := n.Irecv(buf, 0, 0)
			n.Wait(ctx, req)
			if n.Cancel(ctx, req) {
				t.Error("Cancel of completed op reported success")
			}
		}
		n.Barrier(ctx)
	})
}

func TestRequestCreateUserManaged(t *testing.T) {
	runNodes(t, 1, 2, func(n *Node, ctx *hc.Ctx) {
		req := n.RequestCreate()
		var saw atomic.Int32
		ctx.Finish(func(ctx *hc.Ctx) {
			ctx.AsyncAwait(func(*hc.Ctx) {
				st, _ := req.GetStatus()
				saw.Store(int32(st.Bytes))
			}, req.DDF())
			if err := n.CompleteRequest(ctx, req, &Status{Bytes: 123}); err != nil {
				t.Errorf("CompleteRequest: %v", err)
			}
		})
		if saw.Load() != 123 {
			t.Errorf("await saw %d", saw.Load())
		}
		// Double completion violates single assignment.
		if err := n.CompleteRequest(ctx, req, &Status{}); err == nil {
			t.Error("double CompleteRequest accepted")
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		if n.Rank() == 0 {
			n.Send(ctx, []byte{1}, 1, 0)
		} else {
			buf := make([]byte, 1)
			n.Recv(ctx, buf, 0, 0)
		}
		n.Barrier(ctx)
		st := n.StatsSnapshot()
		if st.Dispatched == 0 || st.Polls == 0 {
			t.Errorf("stats not accounted: dispatched=%d polls=%d",
				st.Dispatched, st.Polls)
		}
		if n.Rank() == 0 && st.Sends == 0 {
			t.Error("send not counted")
		}
		if n.Rank() == 1 && st.Recvs == 0 {
			t.Error("recv not counted")
		}
		if st.Collectives == 0 {
			t.Error("barrier not counted as collective")
		}
	})
}
