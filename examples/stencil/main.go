// 1D heat diffusion: the classic BSP stencil, written with the two HCMPI
// features the paper names as the unification's payoff — halo exchange
// through one-sided Puts into RMA windows (the paper's future-work
// HCMPI_Put), and an hcmpi-phaser as the system-wide iteration barrier,
// overlapping inter-node synchronization with the fuzzy mode. Intra-node
// parallelism comes from async/finish over row chunks.
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"math"

	"hcmpi"
)

const (
	ranks   = 4
	workers = 2
	cells   = 400 // per rank
	steps   = 200
	alpha   = 0.25
)

func main() {
	hcmpi.Run(ranks, workers, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		// grid[1..cells] are my cells; grid[0] and grid[cells+1] are halo
		// slots that neighbours write into one-sidedly.
		grid := make([]float64, cells+2)
		next := make([]float64, cells+2)
		// A hot spike in the middle of the global domain.
		if n.Rank() == ranks/2 {
			grid[cells/2] = 1000
		}

		halo := make([]byte, 16) // [left-halo float64][right-halo float64]
		win := n.WinCreate(ctx, halo)
		ph := n.PhaserCreate(hcmpi.Fuzzy)
		reg := ph.Register(hcmpi.SignalWait)

		left, right := n.Rank()-1, n.Rank()+1
		for s := 0; s < steps; s++ {
			// Publish boundary cells into the neighbours' halos.
			if left >= 0 {
				win.Put(f64bytes(grid[1]), left, 8)
			}
			if right < ranks {
				win.Put(f64bytes(grid[cells]), right, 0)
			}
			win.Fence(ctx) // all puts of this step visible
			grid[0] = f64from(halo[0:8])
			grid[cells+1] = f64from(halo[8:16])
			// Insulated global boundaries: mirror the edge cells.
			if n.Rank() == 0 {
				grid[0] = grid[1]
			}
			if n.Rank() == ranks-1 {
				grid[cells+1] = grid[cells]
			}

			// Parallel interior update (async/finish over chunks).
			const chunkSz = 100
			ctx.Finish(func(ctx *hcmpi.Ctx) {
				for lo := 1; lo <= cells; lo += chunkSz {
					lo := lo
					hi := lo + chunkSz
					if hi > cells+1 {
						hi = cells + 1
					}
					ctx.Async(func(*hcmpi.Ctx) {
						for i := lo; i < hi; i++ {
							next[i] = grid[i] + alpha*(grid[i-1]-2*grid[i]+grid[i+1])
						}
					})
				}
			})
			grid, next = next, grid
			// System-wide step barrier: every task on every rank.
			reg.Next()
		}

		// Conservation check: total heat is invariant under diffusion
		// with insulated global boundaries.
		var local float64
		for i := 1; i <= cells; i++ {
			local += grid[i]
		}
		sum := n.Allreduce(ctx, f64bytes(local), hcmpi.Float64, hcmpi.OpSum)
		total := f64from(sum)
		if n.Rank() == 0 {
			fmt.Printf("after %d steps: total heat %.3f (expected 1000.000)\n", steps, total)
			if math.Abs(total-1000) > 1e-6 {
				panic("heat not conserved")
			}
		}
		reg.Drop()
	})
}

func f64bytes(v float64) []byte {
	b := make([]byte, 8)
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	return b
}

func f64from(b []byte) float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return math.Float64frombits(u)
}
