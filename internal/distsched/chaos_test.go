package distsched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
)

// TestDistSchedChaosVictimDeath kills the most-loaded rank mid-run and
// checks the fail-stop contract: every survivor's Run returns an error
// wrapping mpi.ErrRankFailed, per-rank frame accounting stays
// conserved, and no frame executes twice anywhere in the job.
func TestDistSchedChaosVictimDeath(t *testing.T) {
	const (
		ranks   = 3
		victim  = 1
		heavy   = 300 // tasks seeded on the victim
		light   = 2   // tasks seeded on each survivor
		taskDur = 300 * time.Microsecond
	)

	w := mpi.NewWorld(ranks)
	var executed sync.Map // payload id -> executing rank
	var mu sync.Mutex
	stats := map[int]Stats{}
	errs := map[int]error{}

	kill := time.AfterFunc(15*time.Millisecond, func() { w.FailRank(victim) })
	defer kill.Stop()

	w.Run(func(c *mpi.Comm) {
		// Failed collectives need a watchdog or Close would hang on the
		// shutdown barrier once the victim is gone.
		n := hcmpi.NewNode(c, hcmpi.Config{Workers: 2, OpTimeout: 2 * time.Second})
		s := New(n)
		s.Register("slow", func(tc *TaskCtx, payload []byte) {
			id := string(payload) // copies out of the pooled buffer
			if prev, dup := executed.LoadOrStore(id, tc.Rank()); dup {
				t.Errorf("frame %q executed twice (ranks %v and %d)", id, prev, tc.Rank())
			}
			time.Sleep(taskDur)
		})
		seed := light
		if c.Rank() == victim {
			seed = heavy
		}
		for i := 0; i < seed; i++ {
			s.Submit("slow", []byte(fmt.Sprintf("r%d-%d", c.Rank(), i)))
		}
		var err error
		n.Main(func(ctx *hc.Ctx) { err = s.Run(ctx) })
		n.Close()
		mu.Lock()
		stats[c.Rank()] = s.Stats()
		errs[c.Rank()] = err
		mu.Unlock()
	})

	for r := 0; r < ranks; r++ {
		if r == victim {
			continue
		}
		if !errors.Is(errs[r], mpi.ErrRankFailed) {
			t.Errorf("rank %d: err = %v, want ErrRankFailed", r, errs[r])
		}
		st := stats[r]
		if st.Spawned+st.MigratedIn != st.Executed+st.MigratedOut+st.Dropped {
			t.Errorf("rank %d conservation broken: %+v", r, st)
		}
		if st.RankFailures == 0 {
			t.Errorf("rank %d never recorded the failure: %+v", r, st)
		}
	}
}

// TestDistSchedChaosGrantToDeadThief: the thief dies while grants to it
// may be in flight; the granting survivors must still converge with a
// failure error rather than wait on the dead rank's share of work.
func TestDistSchedChaosGrantToDeadThief(t *testing.T) {
	const ranks = 3
	w := mpi.NewWorld(ranks)
	var mu sync.Mutex
	errs := map[int]error{}

	kill := time.AfterFunc(10*time.Millisecond, func() { w.FailRank(2) })
	defer kill.Stop()

	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, hcmpi.Config{Workers: 2, OpTimeout: 2 * time.Second})
		s := New(n)
		s.Register("slow", func(tc *TaskCtx, payload []byte) {
			time.Sleep(200 * time.Microsecond)
		})
		if c.Rank() == 0 {
			for i := 0; i < 250; i++ {
				s.Submit("slow", nil)
			}
		}
		var err error
		n.Main(func(ctx *hc.Ctx) { err = s.Run(ctx) })
		n.Close()
		mu.Lock()
		errs[c.Rank()] = err
		mu.Unlock()
	})

	for _, r := range []int{0, 1} {
		if !errors.Is(errs[r], mpi.ErrRankFailed) {
			t.Errorf("rank %d: err = %v, want ErrRankFailed", r, errs[r])
		}
	}
}
