// Distributed work stealing: the runtime's inter-rank load-balancing
// plane in one file.
//
// Three ranks run in-process. Rank 0 seeds a maximally imbalanced
// divide-and-conquer computation — a ternary tree of tasks, every root
// on rank 0 — and the distributed scheduler spreads it: idle ranks
// steal batches of migratable tasks over the MPI transport, and a
// Safra-style token ring proves global termination (no task left
// anywhere, counted exactly once).
//
//	go run ./examples/diststeal
package main

import (
	"fmt"
	"os"
	"sync"

	"hcmpi"
)

const (
	ranks   = 3
	workers = 2
	depth   = 8 // complete ternary task tree: (3^(depth+1)-1)/2 tasks
)

func main() {
	var mu sync.Mutex
	stats := make(map[int]hcmpi.DistStats)

	hcmpi.Run(ranks, workers, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		s := hcmpi.NewDistScheduler(n, hcmpi.DistConfig{})
		// A migratable task: one byte of payload (its depth), spawning
		// three children. Handlers must be registered identically on
		// every rank; payloads travel with the task when it is stolen.
		s.Register("node", func(tc *hcmpi.DistTaskCtx, payload []byte) {
			spin(1 << 16) // ~30µs of simulated work, enough to outlive a steal round trip
			if d := payload[0]; d > 0 {
				for i := 0; i < 3; i++ {
					tc.Spawn("node", []byte{d - 1})
				}
			}
		})
		if n.Rank() == 0 {
			s.Submit("node", []byte{depth}) // the whole tree on one rank
		}
		n.Barrier(ctx) // start line, so the imbalance is real
		if err := s.Run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "rank %d: %v\n", n.Rank(), err)
			os.Exit(1)
		}
		mu.Lock()
		stats[n.Rank()] = s.Stats()
		mu.Unlock()
	})

	want := int64(0)
	for i, pow := 0, int64(1); i <= depth; i, pow = i+1, pow*3 {
		want += pow
	}
	var total int64
	for r := 0; r < ranks; r++ {
		st := stats[r]
		total += st.Executed
		fmt.Printf("rank %d: executed=%d migrated_in=%d migrated_out=%d grants_in=%d denies_in=%d term_rounds=%d\n",
			r, st.Executed, st.MigratedIn, st.MigratedOut, st.GrantsIn, st.DeniesIn, st.TermRounds)
	}
	fmt.Printf("total executed %d of %d tasks, all seeded on rank 0\n", total, want)
	if total != want {
		fmt.Fprintln(os.Stderr, "task count mismatch: lost or duplicated work")
		os.Exit(1)
	}
}

// spin burns CPU so a task outlives a steal round trip.
func spin(n int) {
	acc := 1
	for i := 0; i < n; i++ {
		acc = acc*31 + i
	}
	if acc == 42 {
		panic("unreachable")
	}
}
