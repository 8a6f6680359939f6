package uts

import (
	"sync"
	"testing"
	"time"

	"hcmpi/internal/distsched"
	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
)

// TestSpillAllocFree pins the spill path: in steady state a spawned
// frame costs no allocation — its payload comes from the scheduler's
// pool, the frame struct from the driver's free list, and the handler
// decodes into and encodes from its persistent stack. Two 1-rank jobs
// on binomial trees of the same shape and different size share every
// fixed cost (scheduler, listeners, the stack's and the deque's growth
// to the root's 2000 children), so the difference in allocations over
// the difference in spawned frames is the marginal cost of a frame.
func TestSpillAllocFree(t *testing.T) {
	small, large := T3Med, T3Med
	large.Q = 0.248
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		measure := func(cfg Config) (allocs float64, spawned int64) {
			allocs = testing.AllocsPerRun(5, func() {
				n := hcmpi.NewNode(c, hcmpi.Config{Workers: 1})
				s := distsched.New(n)
				n.Main(func(ctx *hc.Ctx) {
					if _, err := runHCMPIOn(s, ctx, cfg, DefaultParams); err != nil {
						t.Errorf("run: %v", err)
					}
				})
				spawned = s.Stats().Spawned
				n.Close()
			})
			return allocs, spawned
		}
		a0, f0 := measure(small)
		a1, f1 := measure(large)
		if f1-f0 < 2000 {
			t.Fatalf("trees too close to measure: %d and %d frames", f0, f1)
		}
		per := (a1 - a0) / float64(f1-f0)
		t.Logf("%.4f allocations per spawned frame (%.0f for %d frames, %.0f for %d)", per, a0, f0, a1, f1)
		if per > 0.1 {
			t.Errorf("%.3f allocations per spawned frame (%.0f for %d frames, %.0f for %d), want <= 0.1",
				per, a0, f0, a1, f1)
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
