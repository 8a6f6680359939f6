package hcmpi

import (
	"testing"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
	"hcmpi/internal/netsim"
)

func TestHCMPIWinPutFence(t *testing.T) {
	const ranks = 3
	runNodes(t, ranks, 2, func(n *Node, ctx *hc.Ctx) {
		buf := make([]byte, ranks)
		win := n.WinCreate(ctx, buf)
		for target := 0; target < ranks; target++ {
			win.Put([]byte{byte(n.Rank() + 1)}, target, n.Rank())
		}
		win.Fence(ctx)
		for r := 0; r < ranks; r++ {
			if buf[r] != byte(r+1) {
				t.Errorf("rank %d buf[%d] = %d", n.Rank(), r, buf[r])
			}
		}
	})
}

func TestHCMPIWinGetAwait(t *testing.T) {
	runNodes(t, 2, 2, func(n *Node, ctx *hc.Ctx) {
		buf := []byte{byte(100 + n.Rank())}
		win := n.WinCreate(ctx, buf)
		win.Fence(ctx)
		peer := 1 - n.Rank()
		req := win.Get(1, peer, 0)
		// The one-sided request is a DDF like any other: await it.
		got := make(chan byte, 1)
		ctx.Finish(func(ctx *hc.Ctx) {
			ctx.AsyncAwait(func(*hc.Ctx) {
				st, _ := req.GetStatus()
				got <- st.Payload[0]
			}, req.DDF())
		})
		if v := <-got; v != byte(100+peer) {
			t.Errorf("rank %d got %d", n.Rank(), v)
		}
		win.Fence(ctx)
	})
}

func TestHCMPIAccumulateIntoWindow(t *testing.T) {
	const ranks = 4
	runNodes(t, ranks, 1, func(n *Node, ctx *hc.Ctx) {
		buf := make([]byte, 8)
		win := n.WinCreate(ctx, buf)
		win.Accumulate(mpi.EncodeInt64(int64(n.Rank()+1)), mpi.Int64, mpi.OpSum, 0, 0)
		win.Fence(ctx)
		if n.Rank() == 0 {
			if got := mpi.DecodeInt64(buf); got != ranks*(ranks+1)/2 {
				t.Errorf("accumulated %d", got)
			}
		}
		win.Fence(ctx)
	})
}

func TestHCMPIIBarrierOverlap(t *testing.T) {
	runNodesNet(t, 2, 2, netsim.Params{InterLatency: time.Millisecond}, func(n *Node, ctx *hc.Ctx) {
		req := n.IBarrier()
		if _, ok := req.Test(); ok {
			t.Error("IBarrier done before latency could elapse")
		}
		// Overlap computation, then synchronize via Wait (finish+await).
		n.Wait(ctx, req)
	})
}

func TestHCMPIIAllreduce(t *testing.T) {
	const ranks = 3
	runNodes(t, ranks, 2, func(n *Node, ctx *hc.Ctx) {
		req := n.IAllreduce(mpi.EncodeInt64(int64(n.Rank())), mpi.Int64, mpi.OpSum)
		st := n.Wait(ctx, req)
		if got := mpi.DecodeInt64(st.Payload); got != 3 {
			t.Errorf("rank %d iallreduce = %d", n.Rank(), got)
		}
	})
}

func TestHCMPIIBcast(t *testing.T) {
	const ranks = 4
	runNodes(t, ranks, 1, func(n *Node, ctx *hc.Ctx) {
		buf := make([]byte, 8)
		if n.Rank() == 1 {
			copy(buf, mpi.EncodeInt64(99))
		}
		n.Wait(ctx, n.IBcast(buf, 1))
		if mpi.DecodeInt64(buf) != 99 {
			t.Errorf("rank %d ibcast = %d", n.Rank(), mpi.DecodeInt64(buf))
		}
	})
}
