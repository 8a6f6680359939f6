package distsched

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
	"hcmpi/internal/mpi/mpitest"
)

// treeFrames is the node count of a complete ternary tree whose root
// sits at depth `depth` and whose leaves sit at depth 0.
func treeFrames(depth int) int64 {
	total, pow := int64(0), int64(1)
	for i := 0; i <= depth; i++ {
		total += pow
		pow *= 3
	}
	return total
}

// spinWork burns a few microseconds of CPU per frame so the tree's
// lifetime dwarfs a steal round trip — without it a rank drains the
// whole tree before the first remote request can land.
func spinWork() {
	acc := 1
	for i := 0; i < 8192; i++ {
		acc = acc*31 + i
	}
	if acc == 42 { // defeat dead-code elimination
		panic("unreachable")
	}
}

// runTree executes the synthetic divide-and-conquer workload on one
// rank: every frame of depth d spawns three frames of depth d-1, and
// all roots start on rank 0 (maximally imbalanced). spin scales the
// per-frame CPU cost — higher-latency transports need a longer loaded
// window for steal requests to land mid-run.
func runTree(c *mpi.Comm, workers, depth, spin int) (Stats, error) {
	n := hcmpi.NewNode(c, hcmpi.Config{Workers: workers})
	s := New(n)
	s.Register("node", func(tc *TaskCtx, payload []byte) {
		for i := 0; i < spin; i++ {
			spinWork()
		}
		if d := payload[0]; d > 0 {
			for i := 0; i < 3; i++ {
				tc.Spawn("node", []byte{d - 1})
			}
		}
	})
	if c.Rank() == 0 {
		s.Submit("node", []byte{byte(depth)})
	}
	var err error
	n.Main(func(ctx *hc.Ctx) {
		// Start line: without it, setup skew lets the root rank drain the
		// whole tree before the thief ranks even come online.
		n.Barrier(ctx)
		err = s.Run(ctx)
	})
	n.Close()
	return s.Stats(), err
}

// TestDistSchedConformance runs the imbalanced tree over every
// transport backend (netsim and TCP loopback) and asserts exact global
// frame accounting: the termination detector may never fire early, no
// frame may be dropped or duplicated, and work must have migrated off
// the root rank.
func TestDistSchedConformance(t *testing.T) {
	const depth, ranks, workers = 8, 3, 2
	want := treeFrames(depth)
	for _, b := range mpitest.Backends() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			var mu sync.Mutex
			stats := map[int]Stats{}
			errs := map[int]error{}
			b.Run(t, ranks, func(c *mpi.Comm) {
				st, err := runTree(c, workers, depth, 4)
				mu.Lock()
				stats[c.Rank()] = st
				errs[c.Rank()] = err
				mu.Unlock()
			})
			var executed, migrated, dropped int64
			for r := 0; r < ranks; r++ {
				if errs[r] != nil {
					t.Fatalf("rank %d: %v", r, errs[r])
				}
				st := stats[r]
				executed += st.Executed
				dropped += st.Dropped
				if r != 0 {
					migrated += st.MigratedIn
				}
				if st.Spawned+st.MigratedIn != st.Executed+st.MigratedOut+st.Dropped {
					t.Errorf("rank %d conservation: %+v", r, st)
				}
			}
			if executed != want {
				t.Errorf("executed %d frames, want %d", executed, want)
			}
			if dropped != 0 {
				t.Errorf("dropped %d frames in a clean run", dropped)
			}
			if migrated == 0 {
				t.Error("no frames migrated off the root rank")
			}
		})
	}
}

// TestDistSchedTerminationStress re-runs the workload many times: an
// early-firing detector shows up as a short count.
func TestDistSchedTerminationStress(t *testing.T) {
	const depth, ranks = 5, 3
	want := treeFrames(depth)
	for iter := 0; iter < 10; iter++ {
		var mu sync.Mutex
		var executed int64
		w := mpi.NewWorld(ranks)
		w.Run(func(c *mpi.Comm) {
			st, err := runTree(c, 2, depth, 1)
			if err != nil {
				t.Errorf("iter %d rank %d: %v", iter, c.Rank(), err)
			}
			mu.Lock()
			executed += st.Executed
			mu.Unlock()
		})
		if executed != want {
			t.Fatalf("iter %d: executed %d, want %d", iter, executed, want)
		}
	}
}

// TestDistSchedSingleRank: one rank, no peers — pure local scheduling
// plus the degenerate termination path.
func TestDistSchedSingleRank(t *testing.T) {
	const depth = 6
	want := treeFrames(depth)
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		st, err := runTree(c, 3, depth, 1)
		if err != nil {
			t.Fatalf("err: %v", err)
		}
		if st.Executed != want {
			t.Fatalf("executed %d, want %d", st.Executed, want)
		}
		if st.MigratedIn != 0 || st.MigratedOut != 0 {
			t.Fatalf("phantom migration: %+v", st)
		}
	})
}

// TestFrameCodecRoundTrip checks the grant wire format, including
// payload staging in the frames' own buffers on the receive side.
func TestFrameCodecRoundTrip(t *testing.T) {
	in := []*frame{
		{kind: 2, payload: []byte("alpha")},
		{kind: 0, payload: nil},
		{kind: 1, payload: bytes.Repeat([]byte{0xAB}, 300)},
	}
	if got, want := len(encodeFrames(in)), 4+3*frameHeader+5+300; got != want {
		t.Fatalf("grant of %d bytes, want %d", got, want)
	}
	out, err := decodeFrames(encodeFrames(in), newFrame)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len %d", len(out))
	}
	for i := range in {
		if out[i].kind != in[i].kind || !bytes.Equal(out[i].payload, in[i].payload) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
		if !out[i].owned {
			t.Fatalf("frame %d not owned by the scheduler", i)
		}
	}
	if _, err := decodeFrames([]byte{1, 0, 0, 0, 9}, newFrame); err == nil {
		t.Fatal("truncated grant decoded without error")
	}
}

func TestDoneAndDenyCodecs(t *testing.T) {
	if st, r := decodeDone(encodeDone(doneFailed, 3)); st != doneFailed || r != 3 {
		t.Fatalf("done: %d %d", st, r)
	}
	if st, r := decodeDone(encodeDone(doneClean, -1)); st != doneClean || r != -1 {
		t.Fatalf("done clean: %d %d", st, r)
	}
	if got := decodeDeny(encodeDeny(77)); got != 77 {
		t.Fatalf("deny: %d", got)
	}
}

// TestSpawnExecAllocFree pins the frame cycle: once a driver has run a
// frame, spawning the next one and running it allocates nothing — the
// frame struct comes back from the driver's free list with its payload
// buffer attached.
func TestSpawnExecAllocFree(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, hcmpi.Config{Workers: 1})
		defer n.Close()
		s := New(n)
		ran := 0
		s.Register("leaf", func(_ *TaskCtx, payload []byte) { ran += len(payload) })
		tc := s.newTaskCtx(0)
		cycle := func() {
			tc.Spawn("leaf", tc.Buffer(192))
			f, ok := s.take(tc)
			if !ok {
				t.Fatal("spawned frame not found")
			}
			s.exec(tc, f)
		}
		cycle() // the first frame and buffer are allocated
		if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
			t.Errorf("spawn+exec cycle: %v allocations, want 0", avg)
		}
		if ran != 1002*192 || !s.quiescent() {
			t.Errorf("ran %d payload bytes, quiescent %v", ran, s.quiescent())
		}
	})
}

// TestTakeLastFrameRaisesDemand pins take's demand rule: on a job of two
// or more ranks a driver that takes its deque's last frame raises the
// demand word, so its handler refills the deque before a thief finds it
// empty; on one rank no thief can come from outside and it does not.
func TestTakeLastFrameRaisesDemand(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		w := mpi.NewWorld(ranks)
		w.Run(func(c *mpi.Comm) {
			n := hcmpi.NewNode(c, hcmpi.Config{Workers: 1})
			defer n.Close()
			s := New(n)
			s.Register("leaf", func(*TaskCtx, []byte) {})
			if c.Rank() != 0 {
				return
			}
			tc := s.newTaskCtx(0)
			tc.Spawn("leaf", nil)
			tc.Spawn("leaf", nil)
			if _, ok := s.take(tc); !ok || s.hungry.Load() {
				t.Errorf("%d ranks: first take: ok %v, hungry %v, want a frame and no demand", ranks, ok, s.hungry.Load())
				return
			}
			if _, ok := s.take(tc); !ok || s.hungry.Load() != (ranks > 1) {
				t.Errorf("%d ranks: take of the last frame: ok %v, hungry %v, want %v", ranks, ok, s.hungry.Load(), ranks > 1)
			}
		})
	}
}

// TestDenyWaitsBeforeRetry pins onDeny's re-arm: the steal slot a deny
// answers stays taken for denyWait, so maybeSteal does not ask again at
// once, and then re-arms as it would after a lost reply. With noSteal
// the re-issued steal finds no victim and frees the slot, which is what
// the test reads.
func TestDenyWaitsBeforeRetry(t *testing.T) {
	w := mpi.NewWorld(1)
	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, hcmpi.Config{Workers: 1})
		defer n.Close()
		s := New(n)
		s.noSteal = true
		rng := rand.New(rand.NewSource(1))
		// A check taken more than denyWait after the deny says nothing,
		// so a descheduled attempt is retried.
		for try := 0; ; try++ {
			if try == 100 {
				t.Error("no attempt ran within denyWait of its deny")
				return
			}
			s.outstanding.Store(true)
			s.stealSince.Store(time.Now().UnixNano())
			t0 := time.Now()
			s.onDeny(0, encodeDeny(0))
			s.maybeSteal(rng)
			held := s.outstanding.Load()
			if time.Since(t0) >= denyWait {
				continue
			}
			if !held {
				t.Error("a denied thief asked again at once")
				return
			}
			break
		}
		time.Sleep(2 * denyWait)
		s.maybeSteal(rng)
		if s.outstanding.Load() {
			t.Error("the steal slot was still taken denyWait after the deny")
		}
	})
}
