package mpi

import (
	"sync/atomic"
	"testing"
	"time"

	"hcmpi/internal/netsim"
)

// Non-blocking collectives are started Schedules, built the way hcmpi's
// collective tasks build them: describe, Start, then Test or Wait.

// start describes a collective on a fresh schedule and starts it on c.
func start(c *Comm, describe func(s *Schedule)) *Schedule {
	s := &Schedule{}
	describe(s)
	s.Start(c)
	return s
}

func TestIbarrierCompletes(t *testing.T) {
	const n = 4
	var passed atomic.Int32
	w := NewWorld(n, WithNetwork(netsim.Params{InterLatency: 100 * time.Microsecond}))
	w.Run(func(c *Comm) {
		passed.Add(1)
		req := start(c, (*Schedule).Barrier)
		// Do useful work while the barrier progresses.
		local := 0
		for i := 0; i < 1000; i++ {
			local += i
		}
		req.Wait()
		if got := passed.Load(); got != n {
			t.Errorf("rank %d finished Ibarrier with %d/%d arrivals", c.Rank(), got, n)
		}
	})
}

func TestIbarrierOverlapsComputation(t *testing.T) {
	// The non-blocking barrier must not require the caller to sit in it:
	// Test() is false right after posting under latency.
	w := NewWorld(2, WithNetwork(netsim.Params{InterLatency: 2 * time.Millisecond}))
	w.Run(func(c *Comm) {
		req := start(c, (*Schedule).Barrier)
		if _, ok := req.Test(); ok {
			t.Error("Ibarrier complete before latency elapsed")
		}
		req.Wait()
	})
}

func TestIbcast(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		buf := make([]byte, 8)
		if c.Rank() == 2 {
			copy(buf, EncodeInt64(4242))
		}
		start(c, func(s *Schedule) { s.Bcast(buf, 2) }).Wait()
		if got := DecodeInt64(buf); got != 4242 {
			t.Errorf("rank %d got %d", c.Rank(), got)
		}
	})
}

func TestIallreduce(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		req := start(c, func(s *Schedule) { s.Allreduce(EncodeInt64(int64(c.Rank()+1)), Int64, OpSum) })
		st := req.Wait()
		if st.Bytes != 8 {
			t.Errorf("status %+v", st)
		}
		if got := DecodeInt64(req.Payload()); got != n*(n+1)/2 {
			t.Errorf("rank %d: %d want %d", c.Rank(), got, n*(n+1)/2)
		}
	})
}

func TestNonBlockingMixedWithBlockingCollectives(t *testing.T) {
	// All ranks issue the same order: a started barrier, a blocking
	// Allreduce, a started bcast —
	// sequence numbers keep them separate even while overlapping.
	const n = 4
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		b := start(c, (*Schedule).Barrier)
		sum := DecodeInt64(c.Allreduce(EncodeInt64(1), Int64, OpSum))
		buf := make([]byte, 8)
		if c.Rank() == 0 {
			copy(buf, EncodeInt64(7))
		}
		bc := start(c, func(s *Schedule) { s.Bcast(buf, 0) })
		b.Wait()
		bc.Wait()
		if sum != n || DecodeInt64(buf) != 7 {
			t.Errorf("rank %d: sum=%d bcast=%d", c.Rank(), sum, DecodeInt64(buf))
		}
	})
}

func TestManyConcurrentIbarriers(t *testing.T) {
	const n = 3
	const k = 10
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		reqs := make([]*Schedule, k)
		for i := range reqs {
			reqs[i] = start(c, (*Schedule).Barrier)
		}
		for _, r := range reqs {
			r.Wait()
		}
	})
}

func TestIallreduceVector(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		vec := []int64{int64(c.Rank()), 10}
		req := start(c, func(s *Schedule) { s.Allreduce(EncodeInt64s(vec), Int64, OpSum) })
		req.Wait()
		got := DecodeInt64s(req.Payload())
		if got[0] != 3 || got[1] != 30 {
			t.Errorf("vector iallreduce: %v", got)
		}
	})
}
