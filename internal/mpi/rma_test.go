package mpi

import (
	"testing"
	"time"

	"hcmpi/internal/netsim"
)

func TestRMAPutFenceVisibility(t *testing.T) {
	const n = 4
	w := NewWorld(n, WithNetwork(netsim.Params{InterLatency: 100 * time.Microsecond}))
	w.Run(func(c *Comm) {
		buf := make([]byte, n)
		win := c.WinCreate(buf)
		// Everyone puts its rank id into every other rank's window.
		for target := 0; target < n; target++ {
			win.Put([]byte{byte(c.Rank() + 1)}, target, c.Rank())
		}
		win.Fence()
		// After the fence, every slot must be filled.
		for r := 0; r < n; r++ {
			if buf[r] != byte(r+1) {
				t.Errorf("rank %d: buf[%d] = %d want %d", c.Rank(), r, buf[r], r+1)
			}
		}
	})
}

func TestRMAGet(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		buf := []byte{byte(10 + c.Rank()), byte(20 + c.Rank())}
		win := c.WinCreate(buf)
		win.Fence() // both windows initialized
		peer := 1 - c.Rank()
		req := win.Get(2, peer, 0)
		st := req.Wait()
		got := req.Payload()
		if st.Bytes != 2 || got[0] != byte(10+peer) || got[1] != byte(20+peer) {
			t.Errorf("rank %d got %v (%+v)", c.Rank(), got, st)
		}
		win.Fence()
	})
}

func TestRMAAccumulate(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		buf := make([]byte, 8)
		win := c.WinCreate(buf)
		// Every rank accumulates (rank+1) into rank 0's counter.
		win.Accumulate(EncodeInt64(int64(c.Rank()+1)), Int64, OpSum, 0, 0)
		win.Fence()
		if c.Rank() == 0 {
			if got := DecodeInt64(buf); got != n*(n+1)/2 {
				t.Errorf("accumulated %d want %d", got, n*(n+1)/2)
			}
		}
	})
}

func TestRMAAccumulateMax(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		buf := make([]byte, 8)
		win := c.WinCreate(buf)
		win.Accumulate(EncodeInt64(int64(c.Rank()*7)), Int64, OpMax, 0, 0)
		win.Fence()
		if c.Rank() == 0 {
			if got := DecodeInt64(buf); got != 21 {
				t.Errorf("max %d want 21", got)
			}
		}
	})
}

func TestRMALocalOperations(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		buf := make([]byte, 4)
		win := c.WinCreate(buf)
		win.Put([]byte{1, 2}, 0, 1).Wait()
		if buf[1] != 1 || buf[2] != 2 {
			t.Errorf("local put: %v", buf)
		}
		r := win.Get(2, 0, 1)
		r.Wait()
		if p := r.Payload(); p[0] != 1 || p[1] != 2 {
			t.Errorf("local get: %v", p)
		}
		win.Accumulate([]byte{5}, Byte, OpSum, 0, 1)
		win.Fence()
		if buf[1] != 6 {
			t.Errorf("local accumulate: %v", buf)
		}
	})
}

func TestRMAMultipleWindows(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		a := make([]byte, 2)
		b := make([]byte, 2)
		winA := c.WinCreate(a)
		winB := c.WinCreate(b)
		peer := 1 - c.Rank()
		winA.Put([]byte{7}, peer, 0)
		winB.Put([]byte{9}, peer, 1)
		winA.Fence()
		winB.Fence()
		if a[0] != 7 || b[1] != 9 {
			t.Errorf("windows mixed up: a=%v b=%v", a, b)
		}
	})
}

func TestRMAPutGetRoundTripUnderLatency(t *testing.T) {
	w := NewWorld(3, WithNetwork(netsim.Params{InterLatency: 200 * time.Microsecond}))
	w.Run(func(c *Comm) {
		buf := make([]byte, 16)
		win := c.WinCreate(buf)
		next := (c.Rank() + 1) % 3
		win.Put([]byte{byte(c.Rank() + 40)}, next, 0)
		win.Fence()
		prev := (c.Rank() + 2) % 3
		if buf[0] != byte(prev+40) {
			t.Errorf("rank %d: got %d want %d", c.Rank(), buf[0], prev+40)
		}
		// Get it back from the successor for a full round trip.
		r := win.Get(1, next, 0)
		r.Wait()
		if r.Payload()[0] != byte(c.Rank()+40) {
			t.Errorf("round trip got %d", r.Payload()[0])
		}
		win.Fence()
	})
}
