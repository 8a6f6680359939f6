// Chaos demonstrates the deterministic fault plane: the same program run
// with faults off (nothing changes), under message loss (completes: the
// MPI layer retransmits every dropped message), and under a network
// partition that never heals (the send fails with ErrMessageDropped once
// its retransmissions are spent, the receive with ErrTimeout at
// OpTimeout — no hang). Re-running with the same -seed replays the exact
// fault schedule.
package main

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"hcmpi"
)

func main() {
	seed := flag.Uint64("seed", 0xC4A05, "fault schedule seed")
	drop := flag.Float64("drop", 0.15, "per-message drop probability")
	flag.Parse()

	fmt.Println("— clean run (zero faults) —")
	run(hcmpi.Config{Workers: 2})

	fmt.Printf("— lossy run (drop=%.2f seed=%#x) —\n", *drop, *seed)
	run(hcmpi.Config{Workers: 2, OpTimeout: 5 * time.Second,
		Faults: &hcmpi.Faults{Seed: *seed, DropProb: *drop}})

	fmt.Printf("— partitioned run (seed=%#x) —\n", *seed)
	run(hcmpi.Config{Workers: 2, OpTimeout: 50 * time.Millisecond,
		Faults: &hcmpi.Faults{Seed: *seed,
			Partitions: []hcmpi.FaultPartition{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}}})
}

func run(cfg hcmpi.Config) {
	const msgs = 30
	agg := hcmpi.NewMetrics() // job-wide counters, merged from every rank
	hcmpi.RunConfig(2, cfg, func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		defer agg.Merge(n.Metrics())
		switch n.Rank() {
		case 0:
			var failed error
			for i := 0; i < msgs; i++ {
				st := n.Send(ctx, []byte(fmt.Sprintf("msg-%02d", i)), 1, 7)
				if st.Err != nil {
					failed = st.Err
					break
				}
			}
			s := n.StatsSnapshot()
			if failed != nil {
				fmt.Printf("  rank 0: send failed with %s after %d resends — no hang\n",
					errName(failed), s.Retries)
				return
			}
			fmt.Printf("  rank 0: %d sends delivered (resends=%d timeouts=%d)\n",
				msgs, s.Retries, s.Timeouts)
		case 1:
			buf := make([]byte, 16)
			for i := 0; i < msgs; i++ {
				st := n.Recv(ctx, buf, 0, 7)
				if st.Err != nil {
					fmt.Printf("  rank 1: recv %d failed with %s — no hang\n", i, errName(st.Err))
					return
				}
				if got, want := string(buf[:st.Bytes]), fmt.Sprintf("msg-%02d", i); got != want {
					fmt.Printf("  rank 1: ORDER VIOLATION at %d: %q\n", i, got)
					return
				}
			}
			fmt.Printf("  rank 1: %d messages received in order\n", msgs)
		}
	})
	fmt.Printf("  metrics: %s\n", agg.Summary())
}

// errName names the fault sentinel err wraps.
func errName(err error) string {
	switch {
	case errors.Is(err, hcmpi.ErrTimeout):
		return "ErrTimeout"
	case errors.Is(err, hcmpi.ErrRankFailed):
		return "ErrRankFailed"
	case errors.Is(err, hcmpi.ErrMessageDropped):
		return "ErrMessageDropped"
	}
	return err.Error()
}
