package hcmpi

import (
	"bytes"
	"sync/atomic"
	"testing"

	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
	"hcmpi/internal/mpi/mpitest"
)

// Cross-transport conformance for the HCMPI layer: the comm-task corpus
// below runs over every backend mpitest ships (netsim and the TCP
// loopback mesh), proving the communication worker, await model,
// collectives, and one-sided operations are transport-agnostic.

type hcmpiCase struct {
	name  string
	ranks int
	body  func(t *testing.T, n *Node, ctx *hc.Ctx)
}

func hcmpiCorpus() []hcmpiCase {
	return []hcmpiCase{
		{"SendRecv", 2, confNodeSendRecv},
		{"AsyncAwait", 2, confNodeAsyncAwait},
		{"WaitAllMixed", 3, confNodeWaitAllMixed},
		{"Collectives", 4, confNodeCollectives},
		{"NonBlockingCollectives", 3, confNodeNBC},
		{"RMAPutFence", 3, confNodeRMA},
	}
}

func TestHCMPIConformance(t *testing.T) {
	for _, b := range mpitest.Backends() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, tc := range hcmpiCorpus() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					b.Run(t, tc.ranks, func(c *mpi.Comm) {
						n := NewNode(c, Config{Workers: 2})
						n.Main(func(ctx *hc.Ctx) { tc.body(t, n, ctx) })
						n.Close()
					})
				})
			}
		})
	}
}

func confNodeSendRecv(t *testing.T, n *Node, ctx *hc.Ctx) {
	switch n.Rank() {
	case 0:
		n.Send(ctx, []byte("ping"), 1, 7)
	case 1:
		buf := make([]byte, 8)
		st := n.Recv(ctx, buf, 0, 7)
		if st.Source != 0 || st.Bytes != 4 || string(buf[:4]) != "ping" {
			t.Errorf("recv %+v buf %q", st, buf[:st.Bytes])
		}
	}
}

func confNodeAsyncAwait(t *testing.T, n *Node, ctx *hc.Ctx) {
	switch n.Rank() {
	case 0:
		n.Isend([]byte("data"), 1, 3)
	case 1:
		buf := make([]byte, 4)
		var got atomic.Value
		ctx.Finish(func(ctx *hc.Ctx) {
			req := n.Irecv(buf, 0, 3)
			ctx.AsyncAwait(func(*hc.Ctx) { got.Store(string(buf)) }, req.DDF())
		})
		if s, _ := got.Load().(string); s != "data" {
			t.Errorf("await task read %q", s)
		}
	}
}

func confNodeWaitAllMixed(t *testing.T, n *Node, ctx *hc.Ctx) {
	if n.Rank() == 0 {
		reqs := make([]*Request, 0, 2*(n.Size()-1))
		bufs := make([][]byte, n.Size())
		for r := 1; r < n.Size(); r++ {
			bufs[r] = make([]byte, 1)
			reqs = append(reqs,
				n.Isend([]byte{byte(r)}, r, 5),
				n.Irecv(bufs[r], r, 6))
		}
		for i, st := range n.WaitAll(ctx, reqs...) {
			if st.Err != nil {
				t.Errorf("req %d: %+v", i, st)
			}
		}
		for r := 1; r < n.Size(); r++ {
			if bufs[r][0] != byte(r*2) {
				t.Errorf("echo from %d: %d", r, bufs[r][0])
			}
		}
		return
	}
	buf := make([]byte, 1)
	n.Recv(ctx, buf, 0, 5)
	n.Send(ctx, []byte{buf[0] * 2}, 0, 6)
}

func confNodeCollectives(t *testing.T, n *Node, ctx *hc.Ctx) {
	p := n.Size()
	n.Barrier(ctx)
	sum := mpi.DecodeInt64(n.Allreduce(ctx, mpi.EncodeInt64(int64(n.Rank()+1)), mpi.Int64, mpi.OpSum))
	if sum != int64(p*(p+1)/2) {
		t.Errorf("rank %d allreduce %d", n.Rank(), sum)
	}
	buf := make([]byte, 8)
	if n.Rank() == p-1 {
		copy(buf, mpi.EncodeInt64(4242))
	}
	n.Bcast(ctx, buf, p-1)
	if mpi.DecodeInt64(buf) != 4242 {
		t.Errorf("rank %d bcast %d", n.Rank(), mpi.DecodeInt64(buf))
	}
	out := n.Allgather(ctx, []byte{byte(n.Rank() + 1)})
	for r := 0; r < p; r++ {
		if !bytes.Equal(out[r], []byte{byte(r + 1)}) {
			t.Errorf("allgather[%d] = %v", r, out[r])
		}
	}
}

func confNodeNBC(t *testing.T, n *Node, ctx *hc.Ctx) {
	r := n.IAllreduce(mpi.EncodeInt64(int64(n.Rank())), mpi.Int64, mpi.OpMax)
	st := n.Wait(ctx, r)
	if st.Err != nil {
		t.Errorf("iallreduce %+v", st)
	}
	if got := mpi.DecodeInt64(st.Payload); got != int64(n.Size()-1) {
		t.Errorf("iallreduce max %d", got)
	}
	n.Wait(ctx, n.IBarrier())
}

func confNodeRMA(t *testing.T, n *Node, ctx *hc.Ctx) {
	buf := make([]byte, n.Size())
	win := n.WinCreate(ctx, buf)
	for target := 0; target < n.Size(); target++ {
		win.Put([]byte{byte(n.Rank() + 1)}, target, n.Rank())
	}
	win.Fence(ctx)
	for r := 0; r < n.Size(); r++ {
		if buf[r] != byte(r+1) {
			t.Errorf("rank %d buf[%d] = %d", n.Rank(), r, buf[r])
		}
	}
	n.Barrier(ctx)
}
