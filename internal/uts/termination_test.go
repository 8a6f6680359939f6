package uts

import (
	"sync"
	"testing"

	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
)

// Termination-detection stress tests: the paper's UTS relies on
// token-based termination; an unsound detector silently drops subtrees.
// These run each implementation many times looking for undercounts
// (premature termination) or hangs (lost tokens).

func TestTerminationStressMPI(t *testing.T) {
	want, _ := T1Small.SeqCount()
	for iter := 0; iter < 60; iter++ {
		var mu sync.Mutex
		var total int64
		w := mpi.NewWorld(3)
		w.Run(func(c *mpi.Comm) {
			ctr := RunMPI(c, T1Small, Params{Chunk: 2, PollInterval: 4})
			mu.Lock()
			total += ctr.Nodes
			mu.Unlock()
		})
		if total != want {
			t.Fatalf("iter %d: total %d want %d (premature termination)", iter, total, want)
		}
	}
}

func TestTerminationStressHCMPI(t *testing.T) {
	want, _ := T1Small.SeqCount()
	for iter := 0; iter < 30; iter++ {
		var mu sync.Mutex
		var total int64
		w := mpi.NewWorld(2)
		w.Run(func(c *mpi.Comm) {
			n := hcmpi.NewNode(c, hcmpi.Config{Workers: 2})
			ctr := RunHCMPI(n, T1Small, Params{Chunk: 2, PollInterval: 4})
			mu.Lock()
			total += ctr.Nodes
			mu.Unlock()
			n.Close()
		})
		if total != want {
			t.Fatalf("iter %d: total %d want %d (premature termination)", iter, total, want)
		}
	}
}

func TestTerminationStressHybrid(t *testing.T) {
	want, _ := T1Small.SeqCount()
	for iter := 0; iter < 30; iter++ {
		var mu sync.Mutex
		var total int64
		w := mpi.NewWorld(2)
		w.Run(func(c *mpi.Comm) {
			ctr := RunHybrid(c, T1Small, Params{Chunk: 2, PollInterval: 4}, 2, HybridImproved)
			mu.Lock()
			total += ctr.Nodes
			mu.Unlock()
		})
		if total != want {
			t.Fatalf("iter %d: total %d want %d (premature termination)", iter, total, want)
		}
	}
}

// TestCensusSoak is the shape in which distsched's early termination
// (ROADMAP defect 2(a); internal/distsched's TestCensusFrameInHand is
// the deterministic case) was found: many short jobs at 2 ranks × 4
// workers with tiny chunks, so drivers go idle and steal from each
// other constantly. An early termination shows as a short node count.
// `make soak` repeats it with -count=200 under -race. It lives here
// because internal/distsched's tests cannot import this package.
func TestCensusSoak(t *testing.T) {
	want, _ := T1Small.SeqCount()
	iters := 25
	if testing.Short() {
		iters = 5
	}
	for iter := 0; iter < iters; iter++ {
		var mu sync.Mutex
		var total int64
		w := mpi.NewWorld(2)
		w.Run(func(c *mpi.Comm) {
			n := hcmpi.NewNode(c, hcmpi.Config{Workers: 4})
			ctr := RunHCMPI(n, T1Small, Params{Chunk: 2, PollInterval: 4})
			n.Close()
			mu.Lock()
			total += ctr.Nodes
			mu.Unlock()
		})
		if total != want {
			t.Fatalf("iter %d: counted %d nodes, want %d (terminated early)", iter, total, want)
		}
	}
}
