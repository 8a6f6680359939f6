package uts

import (
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"hcmpi/internal/distsched"
	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
	"hcmpi/internal/netsim"
)

func TestTreeDeterminism(t *testing.T) {
	n1, d1 := T1Small.SeqCount()
	n2, d2 := T1Small.SeqCount()
	if n1 != n2 || d1 != d2 {
		t.Fatalf("SeqCount not deterministic: %d/%d vs %d/%d", n1, d1, n2, d2)
	}
	if n1 < 100 {
		t.Fatalf("T1Small suspiciously small: %d", n1)
	}
}

// TestGoldenTrees pins the trees themselves, not the kernel against
// itself: the node counts and maximum depths below were measured with
// the value-receiver kernel this package had before childInto (one
// sha1.New per SHA-1 child, one 24-byte Node returned per child), as
// were the descriptors of a root and a child for each hash kind.
func TestGoldenTrees(t *testing.T) {
	for _, g := range []struct {
		cfg   Config
		nodes int64
		depth int32
	}{
		{T1Small, 1196, 7},
		{T3Small, 140237, 341},
		{T1Med, 541788, 9},
		{T3Med, 49817, 101},
	} {
		if n, d := g.cfg.SeqCount(); n != g.nodes || d != g.depth {
			t.Errorf("%s: %d nodes, depth %d; want %d, %d", g.cfg.Name, n, d, g.nodes, g.depth)
		}
	}
	for _, g := range []struct {
		cfg          Config
		root, child3 string
	}{
		{T1Small, "dfb349e23b1ab347da9529fd4ed2e0b9053eb160", "e61b2a04690d9ae26142260939f059bf7142788b"},
		{T1Med, "70cf0188ab497bbb000000000000000000000000", "d5f7c7f765ff78a1000000000000000000000000"},
	} {
		root := g.cfg.Root()
		child := g.cfg.Child(root, 3)
		if got := hex.EncodeToString(root.State[:]); got != g.root || root.Depth != 0 {
			t.Errorf("%s root %s depth %d, want %s depth 0", g.cfg.Name, got, root.Depth, g.root)
		}
		if got := hex.EncodeToString(child.State[:]); got != g.child3 || child.Depth != 1 {
			t.Errorf("%s child 3 %s depth %d, want %s depth 1", g.cfg.Name, got, child.Depth, g.child3)
		}
	}
}

// TestChildIntoMatchesChild checks the in-place writer against the
// value-returning Child byte for byte, for both hash kinds, down the
// first-child spine at depths 0, 1, 5 and 6. The destination starts as
// garbage, so every byte of it must be written.
func TestChildIntoMatchesChild(t *testing.T) {
	for _, c := range []Config{T1Small, T1Med} {
		n := c.Root()
		for depth := int32(0); depth <= 6; depth++ {
			if depth == 0 || depth == 1 || depth >= 5 {
				for i := 0; i < 4; i++ {
					want := c.Child(n, i)
					got := Node{Depth: -1}
					for b := range got.State {
						got.State[b] = 0xFF
					}
					c.childInto(&got, &n, i)
					if got != want {
						t.Errorf("%s depth %d child %d: childInto %x/%d, Child %x/%d",
							c.Name, depth, i, got.State, got.Depth, want.State, want.Depth)
					}
				}
			}
			n = c.Child(n, 0)
		}
	}
}

// TestExpandAllocFree pins the node kernel: counting a T3Small tree
// (SHA-1, 140 k nodes) on a stack that has already grown to the tree's
// peak allocates nothing.
func TestExpandAllocFree(t *testing.T) {
	cfg := T3Small
	var s nodeStack
	var ctr Counters
	count := func() {
		ctr = Counters{}
		s.push(cfg.Root())
		s.expand(&cfg, math.MaxInt, &ctr)
	}
	count() // grows the stack
	if a := testing.AllocsPerRun(3, count); a != 0 {
		t.Errorf("%.1f allocations to count %s on a warmed stack, want 0", a, cfg.Name)
	}
	if ctr.Nodes != 140237 {
		t.Errorf("counted %d nodes, want 140237", ctr.Nodes)
	}
}

// BenchmarkUTSExpand times the node kernel alone: each iteration counts
// the whole T3Med tree (splitmix, 50 k nodes) through expand, and the
// result is reported per node.
func BenchmarkUTSExpand(b *testing.B) {
	cfg := T3Med
	var s nodeStack
	var ctr Counters
	for i := 0; i < b.N; i++ {
		s.push(cfg.Root())
		s.expand(&cfg, math.MaxInt, &ctr)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ctr.Nodes), "ns/node")
}

func TestGeometricVsBinomialShapes(t *testing.T) {
	gn, gd := T1Small.SeqCount()
	bn, bd := Config{Name: "b", Type: Binomial, Hash: HashSHA1, Seed: 7, B0: 50, Q: 0.12, M: 8}.SeqCount()
	if gd != int32(T1Small.GenMx) {
		t.Errorf("geometric max depth %d want %d (full depth reached)", gd, T1Small.GenMx)
	}
	if bd <= 1 {
		t.Errorf("binomial depth %d", bd)
	}
	if gn == bn {
		t.Error("suspicious identical sizes")
	}
}

func TestSplitMixMatchesItself(t *testing.T) {
	c := T3Med
	n1, _ := c.SeqCount()
	n2, _ := c.SeqCount()
	if n1 != n2 {
		t.Fatalf("splitmix tree not deterministic: %d vs %d", n1, n2)
	}
}

func TestNodeCodecRoundTrip(t *testing.T) {
	c := T1Small
	ns := []Node{c.Root(), c.Child(c.Root(), 0), c.Child(c.Root(), 3)}
	got := DecodeNodes(EncodeNodes(ns))
	if len(got) != len(ns) {
		t.Fatalf("len %d", len(got))
	}
	for i := range ns {
		if got[i] != ns[i] {
			t.Fatalf("node %d mismatch", i)
		}
	}
}

func TestBinomialExpectedSize(t *testing.T) {
	c := Config{Type: Binomial, B0: 100, Q: 0.2, M: 4}
	if got := c.ExpectedSize(); got < 500.9 || got > 501.1 {
		t.Fatalf("expected size %v want ~501", got)
	}
	if T1Small.ExpectedSize() == T1Small.ExpectedSize() { // NaN check
		t.Fatal("geometric ExpectedSize should be NaN")
	}
}

// sumCounts allreduces per-rank node counts.
func sumCounts(c *mpi.Comm, local int64) int64 {
	return mpi.DecodeInt64(c.Allreduce(mpi.EncodeInt64(local), mpi.Int64, mpi.OpSum))
}

func TestRunMPIMatchesSequential(t *testing.T) {
	want, _ := T1Small.SeqCount()
	for _, ranks := range []int{1, 2, 4} {
		var mu sync.Mutex
		totals := map[int]int64{}
		w := mpi.NewWorld(ranks)
		w.Run(func(c *mpi.Comm) {
			ctr := RunMPI(c, T1Small, Params{Chunk: 4, PollInterval: 8})
			total := sumCounts(c, ctr.Nodes)
			mu.Lock()
			totals[c.Rank()] = total
			mu.Unlock()
		})
		for r, total := range totals {
			if total != want {
				t.Fatalf("ranks=%d rank %d: total %d want %d", ranks, r, total, want)
			}
		}
	}
}

func TestRunMPIBinomialTree(t *testing.T) {
	cfg := Config{Name: "bt", Type: Binomial, Hash: HashSHA1, Seed: 11, B0: 64, Q: 0.2, M: 4}
	want, _ := cfg.SeqCount()
	w := mpi.NewWorld(3)
	w.Run(func(c *mpi.Comm) {
		ctr := RunMPI(c, cfg, Params{Chunk: 2, PollInterval: 4})
		if total := sumCounts(c, ctr.Nodes); total != want {
			t.Errorf("rank %d total %d want %d", c.Rank(), total, want)
		}
	})
}

func TestRunHCMPIMatchesSequential(t *testing.T) {
	want, _ := T1Small.SeqCount()
	for _, tc := range []struct{ ranks, workers int }{{1, 1}, {1, 3}, {2, 2}, {3, 2}} {
		w := mpi.NewWorld(tc.ranks)
		var mu sync.Mutex
		var grand int64
		w.Run(func(c *mpi.Comm) {
			n := hcmpi.NewNode(c, hcmpi.Config{Workers: tc.workers})
			ctr := RunHCMPI(n, T1Small, Params{Chunk: 4, PollInterval: 8})
			mu.Lock()
			grand += ctr.Nodes
			mu.Unlock()
			n.Close()
		})
		if grand != want {
			t.Fatalf("ranks=%d workers=%d: total %d want %d", tc.ranks, tc.workers, grand, want)
		}
	}
}

func TestRunHCMPIStealActivity(t *testing.T) {
	// Two ranks: rank 1 starts with nothing, so steal traffic (successful
	// or failed, local or global) must appear somewhere.
	w := mpi.NewWorld(2)
	var mu sync.Mutex
	var total Counters
	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, hcmpi.Config{Workers: 2})
		ctr := RunHCMPI(n, T1Med, Params{Chunk: 8, PollInterval: 16})
		mu.Lock()
		total.Add(ctr)
		mu.Unlock()
		n.Close()
	})
	want, _ := T1Med.SeqCount()
	if total.Nodes != want {
		t.Fatalf("nodes %d want %d", total.Nodes, want)
	}
	if total.Steals+total.FailedSteals+total.LocalSteals == 0 {
		t.Error("no steal activity at all with an idle second rank")
	}
}

// TestSpillOnDemand pins lazy task creation: a UTS frame hands out work
// only after a thief has found the rank short. With nobody to ask, the
// seed is the job's only frame; a dry second rank gets work through
// steal grants, with every rank's frames conserved; a dry second driver
// gets it through local steals. Each shape counts the tree exactly.
func TestSpillOnDemand(t *testing.T) {
	want, _ := T3Small.SeqCount()
	for _, tc := range []struct {
		ranks, workers int
		check          func(t *testing.T, st []distsched.Stats, nodes []int64)
	}{
		{1, 1, func(t *testing.T, st []distsched.Stats, _ []int64) {
			if st[0].Spawned != 1 {
				t.Errorf("spawned %d frames, want the seed alone", st[0].Spawned)
			}
		}},
		{2, 1, func(t *testing.T, st []distsched.Stats, nodes []int64) {
			var grants int64
			for r, s := range st {
				// Whichever rank the seed runs on, the other gets work
				// only by asking: a busy rank spills nothing unasked.
				if nodes[r] == 0 {
					t.Errorf("rank %d counted no nodes", r)
				}
				grants += s.GrantsIn
				if in, out := s.Spawned+s.MigratedIn, s.Executed+s.MigratedOut+s.Dropped; in != out {
					t.Errorf("rank %d: spawned %d + migrated in %d != executed %d + migrated out %d + dropped %d",
						r, s.Spawned, s.MigratedIn, s.Executed, s.MigratedOut, s.Dropped)
				}
			}
			if grants == 0 {
				t.Error("no steal grant reached the dry rank")
			}
		}},
		{1, 2, func(t *testing.T, st []distsched.Stats, _ []int64) {
			if st[0].LocalSteals == 0 {
				t.Error("no local steal by the dry driver")
			}
		}},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%dx%d", tc.ranks, tc.workers), func(t *testing.T) {
			st := make([]distsched.Stats, tc.ranks)
			nodes := make([]int64, tc.ranks)
			mpi.NewWorld(tc.ranks).Run(func(c *mpi.Comm) {
				n := hcmpi.NewNode(c, hcmpi.Config{Workers: tc.workers})
				s := distsched.New(n)
				n.Main(func(ctx *hc.Ctx) {
					ctr, err := runHCMPIOn(s, ctx, T3Small, DefaultParams)
					if err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
					}
					nodes[c.Rank()] = ctr.Nodes
				})
				n.Close()
				st[c.Rank()] = s.Stats()
			})
			total := int64(0)
			for _, k := range nodes {
				total += k
			}
			if total != want {
				t.Errorf("counted %d nodes, want %d", total, want)
			}
			tc.check(t, st, nodes)
		})
	}
}

func TestRunHybridMatchesSequential(t *testing.T) {
	want, _ := T1Small.SeqCount()
	for _, tc := range []struct {
		ranks, threads int
		mode           HybridMode
	}{{1, 2, HybridImproved}, {2, 2, HybridImproved}, {3, 2, HybridImproved}, {2, 2, HybridStaged}} {
		w := mpi.NewWorld(tc.ranks)
		var mu sync.Mutex
		var grand int64
		w.Run(func(c *mpi.Comm) {
			ctr := RunHybrid(c, T1Small, Params{Chunk: 4, PollInterval: 8}, tc.threads, tc.mode)
			mu.Lock()
			grand += ctr.Nodes
			mu.Unlock()
		})
		if grand != want {
			t.Fatalf("%+v: total %d want %d", tc, grand, want)
		}
	}
}

func TestCountersAggregation(t *testing.T) {
	a := Counters{Nodes: 5, MaxDepth: 3, Steals: 1}
	b := Counters{Nodes: 7, MaxDepth: 9, FailedSteals: 2}
	a.Add(b)
	if a.Nodes != 12 || a.MaxDepth != 9 || a.Steals != 1 || a.FailedSteals != 2 {
		t.Fatalf("aggregated %+v", a)
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestParamsNormalization(t *testing.T) {
	p := Params{}.normalized()
	if p.Chunk <= 0 || p.PollInterval <= 0 {
		t.Fatalf("normalized %+v", p)
	}
}

func TestRunHCMPIUnderLatencyAndJitter(t *testing.T) {
	// Realistic conditions: inter-node latency with jitter; counts must
	// still be exact (termination soundness under message reordering
	// pressure).
	want, _ := T1Small.SeqCount()
	net := netsim.Params{InterLatency: 50 * time.Microsecond, Jitter: 100 * time.Microsecond}
	w := mpi.NewWorld(3, mpi.WithNetwork(net))
	var mu sync.Mutex
	var total int64
	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, hcmpi.Config{Workers: 2})
		ctr := RunHCMPI(n, T1Small, Params{Chunk: 4, PollInterval: 8})
		mu.Lock()
		total += ctr.Nodes
		mu.Unlock()
		n.Close()
	})
	if total != want {
		t.Fatalf("total %d want %d", total, want)
	}
}

func TestRunMPIUnderLatencyAndJitter(t *testing.T) {
	want, _ := T1Small.SeqCount()
	net := netsim.Params{InterLatency: 30 * time.Microsecond, Jitter: 80 * time.Microsecond}
	w := mpi.NewWorld(4, mpi.WithNetwork(net))
	var mu sync.Mutex
	var total int64
	w.Run(func(c *mpi.Comm) {
		ctr := RunMPI(c, T1Small, Params{Chunk: 2, PollInterval: 4})
		mu.Lock()
		total += ctr.Nodes
		mu.Unlock()
	})
	if total != want {
		t.Fatalf("total %d want %d", total, want)
	}
}
