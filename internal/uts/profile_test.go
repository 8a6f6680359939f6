package uts

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"hcmpi/internal/distsched"
	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
)

// TestSpillAllocFree pins the spill path: in steady state a spawned
// frame costs no allocation — the frame struct and its payload buffer
// come back from the driver's free list (or, a batch at a time, from
// the rank's store), and the handler decodes into and encodes from its
// persistent stack. Frames are spilled on demand only, so the jobs run
// at 1 rank × 2 workers, where each driver's hunger makes the other
// spill. How many frames that makes depends on how often the idle
// driver gets a processor, so the test runs the two trees in turn,
// summing allocations and frames per tree, until they are 2 000 frames
// apart (at most 12 turns: with one processor the idle driver runs only
// when the busy one is preempted, and the test fails as too close to
// measure). Chunk 1 turns each spill into up to spillFrames one-node
// frames: with two processors three turns give about 10 000 frames on
// T3Mid and 2 000 on T3Med. The two trees have the same shape and
// differ only in Q, so they share every fixed cost (scheduler,
// listeners, the stack's and the deque's growth to the root's 2000
// children), and the difference in allocations over the difference in
// spawned frames is the marginal cost of a frame.
func TestSpillAllocFree(t *testing.T) {
	const minRuns, maxRuns = 3, 12
	p := Params{Chunk: 1, PollInterval: DefaultParams.PollInterval}
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		job := func(cfg Config) (allocs uint64, spawned int64) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			n := hcmpi.NewNode(c, hcmpi.Config{Workers: 2})
			s := distsched.New(n)
			n.Main(func(ctx *hc.Ctx) {
				if _, err := runHCMPIOn(s, ctx, cfg, p); err != nil {
					t.Errorf("run: %v", err)
				}
			})
			n.Close()
			runtime.ReadMemStats(&m1)
			return m1.Mallocs - m0.Mallocs, s.Stats().Spawned
		}
		job(T3Med) // warm up
		job(T3Mid)
		var a0, a1 uint64
		var f0, f1 int64
		runs := 0
		for ; runs < minRuns || f1-f0 < 2000; runs++ {
			if runs == maxRuns {
				t.Errorf("trees too close to measure: %d and %d frames in %d runs (a demand spill needs the idle driver on a second processor)",
					f0, f1, runs)
				return
			}
			a, f := job(T3Med)
			a0, f0 = a0+a, f0+f
			a, f = job(T3Mid)
			a1, f1 = a1+a, f1+f
		}
		per := (float64(a1) - float64(a0)) / float64(f1-f0)
		t.Logf("%.4f allocations per spawned frame over %d runs (%d for %d frames, %d for %d)",
			per, runs, a0, f0, a1, f1)
		if per > 0.1 {
			t.Errorf("%.3f allocations per spawned frame over %d runs (%d for %d frames, %d for %d), want <= 0.1",
				per, runs, a0, f0, a1, f1)
		}
	})
}

// TestProfileAccounting checks the Table III profile of all three ports
// against steal.go's rule: every port counts the tree exactly, every
// rank's work + overhead + search fits in its workers' wall time (the
// three states are disjoint), and on a 1-rank run of the larger tree
// work outweighs the other two together — the check that the profile
// no longer measures itself.
func TestProfileAccounting(t *testing.T) {
	ports := []struct {
		name string
		run  func(c *mpi.Comm, cfg Config, workers int) Counters
	}{
		{"mpi", func(c *mpi.Comm, cfg Config, _ int) Counters { return RunMPI(c, cfg, DefaultParams) }},
		{"hcmpi", func(c *mpi.Comm, cfg Config, workers int) Counters {
			n := hcmpi.NewNode(c, hcmpi.Config{Workers: workers})
			defer n.Close()
			return RunHCMPI(n, cfg, DefaultParams)
		}},
		{"hybrid", func(c *mpi.Comm, cfg Config, workers int) Counters {
			return RunHybrid(c, cfg, DefaultParams, workers, HybridImproved)
		}},
	}
	for _, cfg := range []Config{T1Small, T3Small} {
		want, _ := cfg.SeqCount()
		for _, port := range ports {
			for _, ranks := range []int{1, 3} {
				cfg, port, ranks := cfg, port, ranks
				// One rank runs one worker, so nobody searches but at the
				// two ends of the job; three ranks run two each.
				workers := 1
				if ranks > 1 && port.name != "mpi" {
					workers = 2
				}
				t.Run(cfg.Name+"/"+port.name+"/"+string(rune('0'+ranks)), func(t *testing.T) {
					var mu sync.Mutex
					var total Counters
					w := mpi.NewWorld(ranks)
					w.Run(func(c *mpi.Comm) {
						t0 := time.Now()
						ctr := port.run(c, cfg, workers)
						wall := time.Since(t0)
						if sum := ctr.Work + ctr.Overhead + ctr.Search; sum > wall*time.Duration(workers) {
							t.Errorf("rank %d: work %v + overhead %v + search %v = %v exceeds wall %v x %d workers",
								c.Rank(), ctr.Work, ctr.Overhead, ctr.Search, sum, wall, workers)
						}
						if ctr.Search <= 0 {
							t.Errorf("rank %d: search %v, want > 0", c.Rank(), ctr.Search)
						}
						if ctr.Nodes > 0 && ctr.Work <= 0 {
							t.Errorf("rank %d: %d nodes in work %v", c.Rank(), ctr.Nodes, ctr.Work)
						}
						mu.Lock()
						total.Add(ctr)
						mu.Unlock()
					})
					if total.Nodes != want {
						t.Errorf("counted %d nodes, want %d", total.Nodes, want)
					}
					// T1Small is 0.3 ms of work, less than the one timer
					// sleep a port may take to notice it is done; T3Small
					// is tens of milliseconds.
					if ranks == 1 && cfg.Name == "T3Small" && total.Work < total.Overhead+total.Search {
						t.Errorf("1 rank: work %v < overhead %v + search %v", total.Work, total.Overhead, total.Search)
					}
					t.Logf("work %v overhead %v search %v", total.Work, total.Overhead, total.Search)
				})
			}
		}
	}
}
