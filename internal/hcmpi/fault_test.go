package hcmpi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
	"hcmpi/internal/netsim"
)

// chaosSeed keys every seeded fault schedule in this file; a failing run
// reproduces exactly under the same seed (each failure message logs it).
const chaosSeed = 0x5EED5

func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
}

// runChaos drives an SPMD HCMPI job over a faulty interconnect and
// returns the world for post-mortem network stats.
func runChaos(t *testing.T, ranks int, f netsim.Faults, cfg Config, body func(n *Node, ctx *hc.Ctx)) *mpi.World {
	t.Helper()
	w := mpi.NewWorld(ranks, mpi.WithFaults(f))
	w.Run(func(c *mpi.Comm) {
		n := NewNode(c, cfg)
		n.Main(func(ctx *hc.Ctx) { body(n, ctx) })
		n.Close()
	})
	return w
}

// (a) Send/recv under 10% message loss still completes: mpi's send core
// retransmits every dropped message, so the application sees every
// payload exactly once and no errors, and the node counts the resends.
func TestChaosDropRetryCompletes(t *testing.T) {
	skipShort(t)
	const msgs = 60
	cfg := Config{Workers: 2, OpTimeout: 30 * time.Second}
	var retries int64
	w := runChaos(t, 2, netsim.Faults{Seed: chaosSeed, DropProb: 0.10}, cfg,
		func(n *Node, ctx *hc.Ctx) {
			switch n.Rank() {
			case 0:
				for i := 0; i < msgs; i++ {
					st := n.Send(ctx, []byte(fmt.Sprintf("msg-%03d", i)), 1, 7)
					if st.Err != nil {
						t.Errorf("seed=%#x: send %d failed: %v", chaosSeed, i, st.Err)
					}
				}
				retries = n.StatsSnapshot().Retries
			case 1:
				buf := make([]byte, 16)
				for i := 0; i < msgs; i++ {
					st := n.Recv(ctx, buf, 0, 7)
					if st.Err != nil {
						t.Fatalf("seed=%#x: recv %d failed: %v", chaosSeed, i, st.Err)
					}
					if got, want := string(buf[:st.Bytes]), fmt.Sprintf("msg-%03d", i); got != want {
						t.Fatalf("seed=%#x: recv %d = %q, want %q (loss broke FIFO?)", chaosSeed, i, got, want)
					}
				}
			}
		})
	if st := w.Net().Stats(); st.Dropped == 0 {
		t.Fatalf("seed=%#x: nothing dropped, chaos inactive: %+v", chaosSeed, st)
	}
	if retries == 0 {
		t.Fatalf("seed=%#x: drops occurred but no resend was counted", chaosSeed)
	}
}

// (b) A partition that never heals fails both ends instead of hanging:
// the send with ErrMessageDropped once mpi's send core has spent its
// resends (in microseconds, long before the deadline), the receive with
// ErrTimeout when it is withdrawn at its deadline, and Close's final
// barrier (also crossing the partition) is bounded by OpTimeout.
func TestChaosPartitionTimesOut(t *testing.T) {
	skipShort(t)
	cfg := Config{Workers: 2, OpTimeout: 40 * time.Millisecond}
	f := netsim.Faults{Seed: chaosSeed,
		Partitions: []netsim.Partition{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}}
	start := time.Now()
	runChaos(t, 2, f, cfg, func(n *Node, ctx *hc.Ctx) {
		switch n.Rank() {
		case 0:
			st := n.Send(ctx, []byte("into the void"), 1, 3)
			if !errors.Is(st.Err, mpi.ErrMessageDropped) {
				t.Errorf("seed=%#x: send across partition: err=%v, want ErrMessageDropped", chaosSeed, st.Err)
			}
			if n.StatsSnapshot().Retries == 0 {
				t.Errorf("seed=%#x: partitioned send failed without a resend", chaosSeed)
			}
		case 1:
			buf := make([]byte, 16)
			st := n.Recv(ctx, buf, 0, 3)
			if !errors.Is(st.Err, mpi.ErrTimeout) {
				t.Errorf("seed=%#x: recv across partition: err=%v", chaosSeed, st.Err)
			}
		}
	})
	// The whole job — both timed-out operations plus the watchdogged
	// Close barrier — must finish in bounded time; a hang here trips the
	// test binary's global timeout.
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("seed=%#x: partitioned job took %v", chaosSeed, d)
	}
}

// (c) A crashed rank fails all pending and future requests against it
// with ErrRankFailed; the failure poisons the awaiting DDF, so the finish
// scope inside Wait drains instead of deadlocking.
func TestChaosCrashedRankFailsPending(t *testing.T) {
	skipShort(t)
	cfg := Config{Workers: 2, OpTimeout: 100 * time.Millisecond}
	posted := make(chan struct{})
	w := mpi.NewWorld(3)
	go func() {
		<-posted
		w.FailRank(2)
	}()
	w.Run(func(c *mpi.Comm) {
		n := NewNode(c, cfg)
		n.Main(func(ctx *hc.Ctx) {
			if n.Rank() != 0 {
				return // rank 2 is the crash victim; rank 1 just participates in Close
			}
			buf := make([]byte, 8)
			req := n.Irecv(buf, 2, 9)
			close(posted)
			st := n.Wait(ctx, req)
			if !errors.Is(st.Err, mpi.ErrRankFailed) {
				t.Errorf("pending recv from crashed rank: %+v", st)
			}
			if st2 := n.Send(ctx, []byte("late"), 2, 9); !errors.Is(st2.Err, mpi.ErrRankFailed) {
				t.Errorf("send to crashed rank: %+v", st2)
			}
			if n.StatsSnapshot().Failures == 0 {
				t.Error("failures not counted")
			}
		})
		n.Close() // bounded by the collective watchdog despite the dead rank
	})
}

// A collective with an errored round no longer completes silently: rank
// 0 crashes while ranks 1 and 2 are inside an Allreduce rooted at it.
// The survivors' schedules still finish (nobody hangs waiting for the
// dead root), and the collective task completes with ErrRankFailed.
func TestCollectiveCrashedRankFailsAllreduce(t *testing.T) {
	w := mpi.NewWorld(3)
	entered := make(chan struct{}, 2)
	go func() {
		<-entered
		<-entered
		w.FailRank(0)
	}()
	start := time.Now()
	w.Run(func(c *mpi.Comm) {
		// The victim's own Close barrier cannot complete; a short
		// deadline lets it give up. The survivors' is long, so an
		// ErrRankFailed cannot be mistaken for a timeout.
		cfg := Config{Workers: 2, OpTimeout: 10 * time.Second}
		if c.Rank() == 0 {
			cfg.OpTimeout = 50 * time.Millisecond
		}
		n := NewNode(c, cfg)
		n.Main(func(ctx *hc.Ctx) {
			if n.Rank() == 0 {
				return
			}
			req := n.IAllreduce(mpi.EncodeInt64(int64(n.Rank())), mpi.Int64, mpi.OpSum)
			entered <- struct{}{}
			if st := n.Wait(ctx, req); !errors.Is(st.Err, mpi.ErrRankFailed) {
				t.Errorf("rank %d: allreduce with rank 0 crashed: %+v, want ErrRankFailed", n.Rank(), st)
			}
			if n.StatsSnapshot().Failures == 0 {
				t.Errorf("rank %d: failed collective not counted", n.Rank())
			}
		})
		n.Close()
	})
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("job with a crashed root took %v", d)
	}
}

// A stalled rank is slow, not dead: with a deadline wider than the stall
// everything completes cleanly.
func TestChaosStalledRankRecovers(t *testing.T) {
	skipShort(t)
	cfg := Config{Workers: 2, OpTimeout: 5 * time.Second}
	w := mpi.NewWorld(2)
	w.StallRank(1, 25*time.Millisecond)
	w.Run(func(c *mpi.Comm) {
		n := NewNode(c, cfg)
		n.Main(func(ctx *hc.Ctx) {
			switch n.Rank() {
			case 0:
				if st := n.Send(ctx, []byte("patience"), 1, 4); st.Err != nil {
					t.Errorf("send to stalled rank: %v", st.Err)
				}
			case 1:
				buf := make([]byte, 16)
				if st := n.Recv(ctx, buf, 0, 4); st.Err != nil || st.Bytes != 8 {
					t.Errorf("recv on stalled rank: %+v", st)
				}
			}
		})
		n.Close()
	})
}

// A failed request poisons its await list: data-driven tasks awaiting the
// DDF still run (observing the error), and the enclosing finish
// terminates instead of deadlocking.
func TestChaosFailedRequestPoisonsAwait(t *testing.T) {
	skipShort(t)
	cfg := Config{Workers: 2, OpTimeout: 30 * time.Millisecond}
	f := netsim.Faults{Seed: chaosSeed,
		Partitions: []netsim.Partition{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}}
	runChaos(t, 2, f, cfg, func(n *Node, ctx *hc.Ctx) {
		if n.Rank() != 1 {
			return
		}
		buf := make([]byte, 8)
		sawErr := make(chan error, 1)
		ctx.Finish(func(ctx *hc.Ctx) {
			req := n.Irecv(buf, 0, 5)
			ctx.AsyncAwait(func(*hc.Ctx) {
				st, err := req.GetStatus()
				if err != nil {
					sawErr <- err
					return
				}
				sawErr <- st.Err
			}, req.DDF())
		})
		// Reaching this line at all proves the finish drained.
		if err := <-sawErr; !errors.Is(err, mpi.ErrTimeout) {
			t.Errorf("seed=%#x: awaiting task saw %v, want ErrTimeout", chaosSeed, err)
		}
	})
}
