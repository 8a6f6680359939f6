package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hcmpi"
	"hcmpi/internal/uts"
)

// progOpts carries the per-run flag values a program body may need.
type progOpts struct {
	np       int
	killRank int
	deadline time.Duration
}

// program is one entry of the -prog registry.
type program struct {
	desc string
	// killsRank: the launcher SIGKILLs -kill-rank after -kill-after and
	// expects every survivor to exit cleanly anyway.
	killsRank bool
	// body builds the rank main task from the launch options.
	body func(o progOpts) func(n *hcmpi.Node, ctx *hcmpi.Ctx)
}

// programs is the registry behind -prog. Adding a program is one entry
// here; the launcher, flag validation, and usage text all key off it.
var programs = map[string]program{
	"demo": {
		desc: "ring p2p, a collective, one-sided puts",
		body: func(progOpts) func(*hcmpi.Node, *hcmpi.Ctx) { return demo },
	},
	"chaos": {
		desc:      "SIGKILL a rank mid-collective; survivors must observe ErrRankFailed",
		killsRank: true,
		body: func(o progOpts) func(*hcmpi.Node, *hcmpi.Ctx) {
			return chaosProg(o.killRank, o.deadline)
		},
	},
	"uts-dist": {
		desc: "imbalanced UTS rebalanced by the distributed scheduler",
		body: utsDistProg,
	},
	"dist-chaos": {
		desc:      "SIGKILL a rank mid-steal; the distributed scheduler must fail stop",
		killsRank: true,
		body:      distChaosProg,
	},
}

// progNames returns the registry's keys, sorted for usage text.
func progNames() string {
	names := make([]string, 0, len(programs))
	for name := range programs {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// demo: ring p2p, a collective, and one-sided puts — across processes.
func demo(n *hcmpi.Node, ctx *hcmpi.Ctx) {
	me, p := n.Rank(), n.Size()

	// Ring exchange.
	next, prev := (me+1)%p, (me+p-1)%p
	req := n.IrecvBytes(prev, 1)
	n.Isend([]byte(fmt.Sprintf("hello from pid %d rank %d", os.Getpid(), me)), next, 1)
	st := n.Wait(ctx, req)
	fmt.Printf("rank %d (pid %d) received: %q\n", me, os.Getpid(), st.Payload)

	// Allreduce across processes.
	sum := n.Allreduce(ctx, encode(int64(me+1)), hcmpi.Int64, hcmpi.OpSum)
	if me == 0 {
		fmt.Printf("allreduce over %d processes: %d\n", p, decode(sum))
	}

	// One-sided puts into every peer's window.
	buf := make([]byte, p)
	win := n.WinCreate(ctx, buf)
	for t := 0; t < p; t++ {
		win.Put([]byte{byte(me + 1)}, t, me)
	}
	win.Fence(ctx)
	for r := 0; r < p; r++ {
		if buf[r] != byte(r+1) {
			fmt.Fprintf(os.Stderr, "rank %d: RMA slot %d = %d\n", me, r, buf[r])
			os.Exit(1)
		}
	}
	if me == 0 {
		fmt.Println("one-sided puts verified on every process")
	}
}

// chaosProg builds the fail-stop exercise: after a warm-up collective
// the victim leaves the collective schedule and waits for the
// launcher's SIGKILL, while the survivors enter a barrier that still
// includes it. That barrier can only complete through the failure
// path, after which each survivor asserts that operations against the
// dead rank fail fast with ErrRankFailed.
func chaosProg(victim int, deadline time.Duration) func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
	return func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		me := n.Rank()
		n.Barrier(ctx) // everyone up, mesh fully connected
		if me == victim {
			fmt.Printf("chaos: victim rank %d (pid %d) awaiting kill\n", me, os.Getpid())
			select {} // hold the rank open until SIGKILL
		}
		watchdog := time.AfterFunc(deadline, func() {
			fmt.Fprintf(os.Stderr, "chaos: rank %d: deadline %v expired without observing the failure\n", me, deadline)
			os.Exit(3)
		})
		defer watchdog.Stop()

		// Mid-collective when the kill lands: the victim never joins, so
		// this unblocks only once the transport declares it failed.
		n.Barrier(ctx)

		// Leaving the barrier proves that some survivor's connection to the
		// victim has reported the death, not that this one's has (the
		// dissemination barrier never makes rank victim-1 receive from the
		// victim), and until it does the local socket still accepts an
		// eager send. A receive posted on the victim completes when this
		// rank's own detector fires; from then on the first operation
		// against the dead rank must fail.
		if st := n.Recv(ctx, make([]byte, 1), victim, 9); st.Err != hcmpi.ErrRankFailed {
			fmt.Fprintf(os.Stderr, "chaos: rank %d: receive from dead rank returned %v, want ErrRankFailed\n", me, st.Err)
			os.Exit(4)
		}
		st := n.Wait(ctx, n.Isend([]byte{1}, victim, 9))
		if st.Err != hcmpi.ErrRankFailed {
			fmt.Fprintf(os.Stderr, "chaos: rank %d: send to dead rank returned %v, want ErrRankFailed\n", me, st.Err)
			os.Exit(4)
		}
		fmt.Printf("chaos: rank %d observed ErrRankFailed for rank %d\n", me, victim)
	}
}

// utsDistProg runs a maximally imbalanced UTS — the whole tree seeded
// on rank 0 — and lets the distributed scheduler spread it: each rank
// reports how many tasks migrated in, and rank 0 checks the allreduced
// node count against the sequential ground truth. This is the
// end-to-end steal smoke across real OS processes.
func utsDistProg(progOpts) func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
	return func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		// T1Big carries seconds of work: the root rank stays loaded long
		// enough for every peer's steal requests to land over TCP even
		// with all processes sharing one core.
		tree := uts.T1Big
		n.Barrier(ctx) // start line: all ranks up before the root starts
		ctr, err := uts.RunHCMPIIn(n, ctx, tree, uts.DefaultParams)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uts-dist: rank %d: %v\n", n.Rank(), err)
			os.Exit(1)
		}
		migrated := n.Metrics().Counter("dist_steal_tasks_migrated").Load()
		fmt.Printf("uts-dist: rank %d nodes=%d migrated_in=%d local_steals=%d\n",
			n.Rank(), ctr.Nodes, migrated, ctr.LocalSteals)
		total := decode(n.Allreduce(ctx, encode(ctr.Nodes), hcmpi.Int64, hcmpi.OpSum))
		if n.Rank() == 0 {
			want, _ := tree.SeqCount()
			if total != want {
				fmt.Fprintf(os.Stderr, "uts-dist: counted %d nodes, want %d\n", total, want)
				os.Exit(1)
			}
			fmt.Printf("uts-dist: %s complete: %d nodes across %d processes\n",
				tree.Name, total, n.Size())
		}
	}
}

// distChaosProg is the chaos program for the distributed scheduler: the
// victim seeds a long queue of slow tasks that the other ranks steal
// from, the launcher SIGKILLs it mid-steal, and every survivor's
// Scheduler.Run must abort with ErrRankFailed instead of hanging in the
// termination ring.
func distChaosProg(o progOpts) func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
	victim, deadline := o.killRank, o.deadline
	return func(n *hcmpi.Node, ctx *hcmpi.Ctx) {
		me := n.Rank()
		s := hcmpi.NewDistScheduler(n, hcmpi.DistConfig{})
		s.Register("slow", func(tc *hcmpi.DistTaskCtx, payload []byte) {
			time.Sleep(2 * time.Millisecond)
		})
		if me == victim {
			// Enough queued work to keep the victim alive and granting
			// steals until the launcher's kill lands.
			for i := 0; i < 2000; i++ {
				s.Submit("slow", nil)
			}
		}
		n.Barrier(ctx) // everyone up before the stealing starts
		if me == victim {
			fmt.Printf("dist-chaos: victim rank %d (pid %d) seeded and serving steals\n", me, os.Getpid())
		}
		watchdog := time.AfterFunc(deadline, func() {
			fmt.Fprintf(os.Stderr, "dist-chaos: rank %d: deadline %v expired without observing the failure\n", me, deadline)
			os.Exit(3)
		})
		defer watchdog.Stop()

		err := s.Run(ctx)
		if me == victim {
			// Only reachable if the kill never landed; the launcher
			// reports that as its own failure.
			return
		}
		if !errors.Is(err, hcmpi.ErrRankFailed) {
			fmt.Fprintf(os.Stderr, "dist-chaos: rank %d: Run returned %v, want ErrRankFailed\n", me, err)
			os.Exit(4)
		}
		fmt.Printf("dist-chaos: rank %d observed ErrRankFailed\n", me)
	}
}

func encode(x int64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(x >> (8 * i))
	}
	return b
}

func decode(b []byte) int64 {
	var x int64
	for i := 0; i < 8; i++ {
		x |= int64(b[i]) << (8 * i)
	}
	return x
}
