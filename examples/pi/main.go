// Monte-Carlo π with hcmpi-accum: tasks on every rank contribute local
// hit counts to a phaser accumulator whose phase completion runs
// MPI_Allreduce through the communication worker (paper Fig 8). The
// computation repeats for several phases — each one an independent
// system-wide reduction over the same registrations, as phasers are
// designed to be reused.
//
//	go run ./examples/pi
package main

import (
	"fmt"
	"math/rand"

	"hcmpi"
)

const (
	ranks          = 4
	workersPerRank = 3
	tasksPerRank   = 6
	samplesPerTask = 200_000
	phases         = 3
)

func main() {
	hcmpi.Run(ranks, workersPerRank, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		acc := n.AccumCreate(hcmpi.OpSum, hcmpi.Int64)
		ctx.Finish(func(ctx *hcmpi.Ctx) {
			// The spawning task holds a registration until every phased
			// task is registered, so no phase completes with only some of
			// them (every rank must run the same number of phases).
			hold := acc.Register(hcmpi.SignalOnly)
			defer hold.Drop()
			for t := 0; t < tasksPerRank; t++ {
				t := t
				hcmpi.AsyncPhased(ctx, acc, hcmpi.SignalWait, func(_ *hcmpi.Ctx, reg *hcmpi.PhaserReg) {
					rng := rand.New(rand.NewSource(int64(n.Rank()*1000 + t)))
					for ph := 0; ph < phases; ph++ {
						var hits int64
						for s := 0; s < samplesPerTask; s++ {
							x, y := rng.Float64(), rng.Float64()
							if x*x+y*y <= 1 {
								hits++
							}
						}
						// accum_next: contribute and synchronize — the
						// value is globally reduced across every task on
						// every rank.
						reg.AccumNext(hits)
						if n.Rank() == 0 && t == 0 {
							global := reg.Get().(int64)
							est := 4 * float64(global) / float64(ranks*tasksPerRank*samplesPerTask)
							fmt.Printf("phase %d: global hits %d → π ≈ %.5f\n", ph, global, est)
						}
					}
				})
			}
		})
	})
}
