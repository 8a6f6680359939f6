package hcmpi

import (
	"sync/atomic"
	"testing"

	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
	"hcmpi/internal/phaser"
)

// spawnPhased starts k tasks registered on ph while the spawning task
// holds a registration of its own, dropped only once all k are
// registered. Without the hold a task spawned early can run ahead and
// complete a phase on its own before its siblings register: that rank
// then runs one more inter-node collective than the others and the ranks'
// collective sequences diverge.
func spawnPhased(ctx *hc.Ctx, ph *phaser.Phaser, k int, fn func(i int, ctx *hc.Ctx, reg *phaser.Reg)) {
	hold := ph.Register(phaser.SignalOnly)
	defer hold.Drop()
	for i := 0; i < k; i++ {
		i := i
		AsyncPhased(ctx, ph, phaser.SignalWait, func(ctx *hc.Ctx, reg *phaser.Reg) { fn(i, ctx, reg) })
	}
}

// Paper Fig. 7: hcmpi-phaser as a system-wide barrier — n tasks per rank,
// all ranks, one next.
func TestHCMPIPhaserBarrier(t *testing.T) {
	for _, mode := range []BarrierMode{Strict, Fuzzy} {
		t.Run(mode.String(), func(t *testing.T) {
			const ranks = 3
			const tasksPerRank = 4
			var global atomic.Int32
			runNodes(t, ranks, 2, func(n *Node, ctx *hc.Ctx) {
				ph := n.PhaserCreate(mode)
				var local atomic.Int32
				ctx.Finish(func(ctx *hc.Ctx) {
					spawnPhased(ctx, ph, tasksPerRank, func(_ int, ctx *hc.Ctx, reg *phaser.Reg) {
						local.Add(1)
						global.Add(1)
						reg.Next()
						// Local phase ordering holds in both modes.
						if got := local.Load(); got != tasksPerRank {
							t.Errorf("task passed barrier with %d/%d local arrivals", got, tasksPerRank)
						}
						// The strict mode additionally orders against
						// every task system-wide; fuzzy relaxes this
						// (the MPI barrier needs only each rank's
						// first arrival).
						if mode == Strict {
							if got := global.Load(); got != ranks*tasksPerRank {
								t.Errorf("strict barrier passed with %d/%d global arrivals", got, ranks*tasksPerRank)
							}
						}
					})
				})
			})
		})
	}
}

func TestHCMPIPhaserMultiplePhases(t *testing.T) {
	const ranks = 2
	const phases = 5
	runNodes(t, ranks, 2, func(n *Node, ctx *hc.Ctx) {
		ph := n.PhaserCreate(Fuzzy)
		var phaseCount [phases]atomic.Int32
		ctx.Finish(func(ctx *hc.Ctx) {
			spawnPhased(ctx, ph, 3, func(_ int, _ *hc.Ctx, reg *phaser.Reg) {
				for p := 0; p < phases; p++ {
					phaseCount[p].Add(1)
					reg.Next()
					if got := phaseCount[p].Load(); got != 3 {
						t.Errorf("phase %d released with %d/3 local arrivals", p, got)
					}
				}
			})
		})
		if got := ph.Phase(); got != phases {
			t.Errorf("rank %d completed %d phases", n.Rank(), got)
		}
	})
}

// Paper Fig. 8: hcmpi-accum with SUM across tasks and ranks.
func TestHCMPIAccumulatorSum(t *testing.T) {
	const ranks = 3
	const tasksPerRank = 4
	runNodes(t, ranks, 2, func(n *Node, ctx *hc.Ctx) {
		acc := n.AccumCreate(mpi.OpSum, mpi.Int64)
		ctx.Finish(func(ctx *hc.Ctx) {
			spawnPhased(ctx, acc, tasksPerRank, func(i int, _ *hc.Ctx, reg *phaser.Reg) {
				myVal := int64(n.Rank()*100 + i + 1)
				reg.AccumNext(myVal)
				// accum_get: the globally reduced value.
				var want int64
				for r := 0; r < ranks; r++ {
					for j := 0; j < tasksPerRank; j++ {
						want += int64(r*100 + j + 1)
					}
				}
				if got := reg.Get().(int64); got != want {
					t.Errorf("accum_get = %d want %d", got, want)
				}
			})
		})
	})
}

func TestHCMPIAccumulatorMinMax(t *testing.T) {
	const ranks = 4
	runNodes(t, ranks, 1, func(n *Node, ctx *hc.Ctx) {
		accMax := n.AccumCreate(mpi.OpMax, mpi.Int64)
		regMax := accMax.Register(phaser.SignalWait)
		regMax.AccumNext(int64(n.Rank() * 7))
		if got := regMax.Get().(int64); got != 21 {
			t.Errorf("global max = %d", got)
		}
		accMin := n.AccumCreate(mpi.OpMin, mpi.Int64)
		regMin := accMin.Register(phaser.SignalWait)
		regMin.AccumNext(int64(n.Rank() - 10))
		if got := regMin.Get().(int64); got != -10 {
			t.Errorf("global min = %d", got)
		}
	})
}

func TestHCMPIAccumulatorFloat(t *testing.T) {
	const ranks = 2
	runNodes(t, ranks, 1, func(n *Node, ctx *hc.Ctx) {
		acc := n.AccumCreate(mpi.OpSum, mpi.Float64)
		reg := acc.Register(phaser.SignalWait)
		reg.AccumNext(float64(n.Rank()) + 0.25)
		if got := reg.Get().(float64); got != 1.5 {
			t.Errorf("float accum = %v", got)
		}
	})
}

func TestHCMPIAccumulatorAcrossPhases(t *testing.T) {
	const ranks = 2
	runNodes(t, ranks, 1, func(n *Node, ctx *hc.Ctx) {
		acc := n.AccumCreate(mpi.OpSum, mpi.Int64)
		reg := acc.Register(phaser.SignalWait)
		reg.AccumNext(int64(1))
		if got := reg.Get().(int64); got != int64(ranks) {
			t.Errorf("phase 0: %d", got)
		}
		reg.AccumNext(int64(10))
		if got := reg.Get().(int64); got != int64(10*ranks) {
			t.Errorf("phase 1: %d (leaked across phases)", got)
		}
	})
}

func TestFuzzyBarrierOverlapsLocalWork(t *testing.T) {
	// Functional check: fuzzy mode must produce the same synchronization
	// result as strict (overlap is a performance property measured in the
	// simulator).
	const ranks = 3
	runNodes(t, ranks, 2, func(n *Node, ctx *hc.Ctx) {
		ph := n.PhaserCreate(Fuzzy)
		var sum atomic.Int64
		ctx.Finish(func(ctx *hc.Ctx) {
			spawnPhased(ctx, ph, 4, func(_ int, _ *hc.Ctx, reg *phaser.Reg) {
				sum.Add(1)
				reg.Next()
				if sum.Load() != 4 {
					t.Errorf("local arrivals = %d at release", sum.Load())
				}
			})
		})
	})
}

func TestBarrierModeString(t *testing.T) {
	if Strict.String() != "strict" || Fuzzy.String() != "fuzzy" {
		t.Fatal("mode strings wrong")
	}
}
