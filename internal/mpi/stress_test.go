package mpi

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"hcmpi/internal/netsim"
)

// TestRandomTrafficConservation drives random point-to-point traffic
// among several ranks and checks that every sent byte is received
// exactly once — the end-to-end conservation property of the matching
// engine under concurrency and latency.
func TestRandomTrafficConservation(t *testing.T) {
	const ranks = 5
	const msgsPerRank = 120
	w := NewWorld(ranks, WithNetwork(netsim.Params{InterLatency: 20 * time.Microsecond}))

	var mu sync.Mutex
	sent := map[[2]int]int{} // (src,dst) -> count
	recv := map[[2]int]int{}

	w.Run(func(c *Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 99))
		// Every rank knows it will receive msgsPerRank messages in total
		// (each rank addresses its messages round-robin).
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < msgsPerRank; i++ {
				payload, st := c.RecvBytes(AnySource, 1)
				if len(payload) == 0 {
					t.Errorf("empty payload")
				}
				mu.Lock()
				recv[[2]int{st.Source, c.Rank()}]++
				mu.Unlock()
			}
		}()
		for i := 0; i < msgsPerRank; i++ {
			dst := (c.Rank() + 1 + i%(ranks-1)) % ranks
			size := rng.Intn(64) + 1
			c.Isend(make([]byte, size), dst, 1)
			mu.Lock()
			sent[[2]int{c.Rank(), dst}]++
			mu.Unlock()
		}
		wg.Wait()
	})

	// Each rank receives exactly msgsPerRank because the round-robin
	// addressing is symmetric.
	for k, n := range sent {
		if recv[k] != n {
			t.Fatalf("pair %v: sent %d received %d", k, n, recv[k])
		}
	}
}

// TestScanIsOrderedFold uses a non-commutative operator encoded via max
// of (value*rank) to confirm Scan folds in rank order: rank i's result
// depends only on ranks 0..i.
func TestScanPrefixProperty(t *testing.T) {
	const ranks = 6
	w := NewWorld(ranks)
	w.Run(func(c *Comm) {
		v := int64(1) << uint(c.Rank()) // distinct bits
		res := DecodeInt64(c.Scan(EncodeInt64(v), Int64, OpSum))
		want := int64(1<<(c.Rank()+1)) - 1 // sum of bits 0..rank
		if res != want {
			t.Errorf("rank %d scan=%b want %b", c.Rank(), res, want)
		}
	})
}

// TestMassiveCollectiveSequence interleaves many different collectives to
// shake out tag-space collisions.
func TestMassiveCollectiveSequence(t *testing.T) {
	const ranks = 4
	w := NewWorld(ranks, WithNetwork(netsim.Params{InterLatency: 5 * time.Microsecond}))
	w.Run(func(c *Comm) {
		for round := 0; round < 15; round++ {
			c.Barrier()
			s := DecodeInt64(c.Allreduce(EncodeInt64(int64(round)), Int64, OpSum))
			if s != int64(round*ranks) {
				t.Errorf("round %d allreduce %d", round, s)
			}
			buf := make([]byte, 8)
			if c.Rank() == round%ranks {
				copy(buf, EncodeInt64(int64(round*7)))
			}
			c.Bcast(buf, round%ranks)
			if DecodeInt64(buf) != int64(round*7) {
				t.Errorf("round %d bcast %d", round, DecodeInt64(buf))
			}
			g := c.Gather(EncodeInt64(int64(c.Rank())), 0)
			if c.Rank() == 0 && len(g) != ranks {
				t.Errorf("gather len %d", len(g))
			}
		}
	})
}

// TestManyRanksBarrierStorm: dozens of ranks, repeated barriers, with
// per-node link classes.
func TestManyRanksBarrierStorm(t *testing.T) {
	const ranks = 24
	w := NewWorld(ranks, WithRanksPerNode(4),
		WithNetwork(netsim.Params{IntraLatency: time.Microsecond, InterLatency: 10 * time.Microsecond}))
	var count sync.Map
	w.Run(func(c *Comm) {
		for i := 0; i < 10; i++ {
			c.Barrier()
		}
		count.Store(c.Rank(), true)
	})
	n := 0
	count.Range(func(_, _ any) bool { n++; return true })
	if n != ranks {
		t.Fatalf("%d ranks finished", n)
	}
}

// TestRequestReuseSafety: Wait/Test after completion are idempotent and
// never block; statuses are stable.
func TestRequestIdempotence(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			r := c.Isend([]byte{5}, 1, 0)
			st1 := r.Wait()
			st2 := r.Wait()
			if *st1 != *st2 {
				t.Errorf("unstable send status: %+v vs %+v", st1, st2)
			}
			return
		}
		buf := make([]byte, 1)
		r := c.Irecv(buf, 0, 0)
		r.Wait()
		for i := 0; i < 3; i++ {
			if st, ok := r.Test(); !ok || st.Bytes != 1 {
				t.Errorf("Test #%d: %+v %v", i, st, ok)
			}
		}
	})
}
