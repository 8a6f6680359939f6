package hcmpi_test

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"hcmpi"
)

// Tests of the public facade: everything a downstream user reaches for,
// exercised through the exported API only.

func TestFacadeRunSendRecv(t *testing.T) {
	var got atomic.Int32
	hcmpi.Run(2, 2, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		switch n.Rank() {
		case 0:
			n.Send(ctx, []byte{77}, 1, 5)
		case 1:
			buf := make([]byte, 1)
			n.Recv(ctx, buf, 0, 5)
			got.Store(int32(buf[0]))
		}
	})
	if got.Load() != 77 {
		t.Fatalf("got %d", got.Load())
	}
}

func TestFacadeAwaitOnRequest(t *testing.T) {
	var ok atomic.Bool
	hcmpi.Run(2, 2, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		if n.Rank() == 0 {
			n.Isend([]byte("x"), 1, 0)
			return
		}
		buf := make([]byte, 1)
		ctx.Finish(func(ctx *hcmpi.Ctx) {
			req := n.Irecv(buf, 0, 0)
			ctx.AsyncAwait(func(*hcmpi.Ctx) { ok.Store(buf[0] == 'x') }, req.DDF())
		})
	})
	if !ok.Load() {
		t.Fatal("await task did not observe the message")
	}
}

func TestFacadeDDF(t *testing.T) {
	hcmpi.Run(1, 2, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		d := hcmpi.NewDDF()
		var sum atomic.Int64
		ctx.Finish(func(ctx *hcmpi.Ctx) {
			ctx.AsyncAwait(func(*hcmpi.Ctx) { sum.Add(d.MustGet().(int64)) }, d)
			ctx.Async(func(ctx *hcmpi.Ctx) { d.Put(ctx, int64(21)) })
		})
		if sum.Load() != 21 {
			t.Errorf("sum = %d", sum.Load())
		}
	})
}

func TestFacadeCollectivesAndWildcards(t *testing.T) {
	hcmpi.Run(3, 1, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		if hcmpi.AnySource != -1 || hcmpi.AnyTag != -1 {
			t.Error("wildcards changed")
		}
		res := n.Allreduce(ctx, encode64(int64(n.Rank())), hcmpi.Int64, hcmpi.OpMax)
		if decode64(res) != 2 {
			t.Errorf("max = %d", decode64(res))
		}
	})
}

func TestFacadePhaserAccum(t *testing.T) {
	hcmpi.Run(2, 2, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		acc := n.AccumCreate(hcmpi.OpSum, hcmpi.Int64)
		ctx.Finish(func(ctx *hcmpi.Ctx) {
			// Held until all three are registered, so none completes a
			// phase alone (DESIGN.md §4c).
			hold := acc.Register(hcmpi.SignalOnly)
			defer hold.Drop()
			for i := 0; i < 3; i++ {
				hcmpi.AsyncPhased(ctx, acc, hcmpi.SignalWait, func(_ *hcmpi.Ctx, reg *hcmpi.PhaserReg) {
					reg.AccumNext(int64(10))
					if got := reg.Get().(int64); got != 60 { // 2 ranks × 3 tasks × 10
						t.Errorf("accum = %d", got)
					}
				})
			}
		})
	})
}

func TestFacadeRunDDDF(t *testing.T) {
	home := func(guid int64) int { return int(guid % 2) }
	var ok atomic.Bool
	hcmpi.RunDDDF(2, hcmpi.Config{Workers: 2}, home, nil, func(s *hcmpi.DDDFSpace, ctx *hcmpi.Ctx) {
		h := s.Handle(0) // home rank 0
		if s.Node().Rank() == 0 {
			h.Put(ctx, []byte("flow"))
			return
		}
		done := make(chan struct{})
		ctx.Finish(func(ctx *hcmpi.Ctx) {
			s.AsyncAwait(ctx, func(*hcmpi.Ctx) {
				ok.Store(string(h.MustGet()) == "flow")
				close(done)
			}, h)
		})
		<-done
	})
	if !ok.Load() {
		t.Fatal("DDDF value not observed remotely")
	}
}

func TestFacadeRMA(t *testing.T) {
	hcmpi.Run(2, 1, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		buf := make([]byte, 2)
		win := n.WinCreate(ctx, buf)
		win.Put([]byte{byte(n.Rank() + 1)}, 1-n.Rank(), 0)
		win.Fence(ctx)
		if buf[0] != byte(2-n.Rank()) {
			t.Errorf("rank %d buf %v", n.Rank(), buf)
		}
	})
}

func TestFacadeNetworkConfig(t *testing.T) {
	var ran atomic.Int32
	hcmpi.RunConfig(4, hcmpi.Config{
		Workers:      1,
		RanksPerNode: 2,
		Net:          hcmpi.NetworkParams{},
	}, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		n.Barrier(ctx)
		ran.Add(1)
	})
	if ran.Load() != 4 {
		t.Fatalf("ran %d ranks", ran.Load())
	}
}

func encode64(x int64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(x >> (8 * i))
	}
	return b
}

func decode64(b []byte) int64 {
	var x int64
	for i := 0; i < 8; i++ {
		x |= int64(b[i]) << (8 * i)
	}
	return x
}

func TestFacadeRunDistributed(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	var got atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			err := hcmpi.RunDistributed(r, addrs, 1, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
				sum := n.Allreduce(ctx, encode64(int64(n.Rank()+1)), hcmpi.Int64, hcmpi.OpSum)
				got.Store(decode64(sum))
			})
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	if got.Load() != 3 {
		t.Fatalf("distributed allreduce = %d", got.Load())
	}
}
