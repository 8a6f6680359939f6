package distsched

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
)

// TestCensusFrameInHand is ROADMAP defect 2(a) as a deterministic case,
// one per way a driver that has already gone idle can come to hold a
// frame no queue holds any more. The old census counted a driver out of
// the idle set only after it had taken a frame, so in that window a
// peer saw "every driver idle, every deque empty", declared the rank
// quiescent, and a white token (a local steal blackens nothing) let
// rank 0 terminate with the frame unrun: BenchmarkRealUTSHCMPI -cpu 4
// reported "nodes 221 want 1196" once in 10⁴ iterations.
//
// Two ranks, all the work on rank 0's two drivers; rank 1 is dry, never
// steals (so the leaf stays on rank 0) and forwards any token at once. The root frame waits until the other
// driver has walked the idle path (its steal request is the evidence)
// before it plants the leaf, and the taken hook parks that driver with
// the leaf in hand. While it is parked rank 0 must not look quiescent
// and the barrier must not terminate, however long its peer looks.
func TestCensusFrameInHand(t *testing.T) {
	for _, sc := range []struct {
		name string
		// plant makes the leaf frame reachable by the idle driver only.
		plant func(root *TaskCtx)
	}{
		// Driver B steal-halves the leaf out of driver A's deque.
		{"local-steal-in-hand", func(root *TaskCtx) { root.Spawn("leaf", nil) }},
		// Driver B pops the leaf from the migrated-frame stack, where a
		// steal grant parks it.
		{"migrated-frame-in-hand", func(root *TaskCtx) {
			s := root.s
			s.ctr.migrated.Add(1)
			s.incoming.Push(&frame{kind: s.kindIndex["leaf"]})
		}},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			w := mpi.NewWorld(2)
			w.Run(func(c *mpi.Comm) {
				n := hcmpi.NewNode(c, hcmpi.Config{Workers: 2})
				defer n.Close()
				s := New(n)
				s.noSteal = c.Rank() != 0

				var (
					rootWorker atomic.Int32
					leafRan    atomic.Bool
					inHand     = make(chan struct{}) // closed: B holds the leaf
					release    = make(chan struct{}) // closed: B may run it
				)
				rootWorker.Store(-1)
				s.Register("root", func(tc *TaskCtx, _ []byte) {
					for s.Stats().StealReqsSent == 0 {
						runtime.Gosched()
					}
					rootWorker.Store(int32(tc.Worker()))
					sc.plant(tc)
					// Stay busy until the other driver holds the leaf, so
					// it is that driver — idle until now — that takes it.
					<-inHand
				})
				s.Register("leaf", func(*TaskCtx, []byte) { leafRan.Store(true) })
				if c.Rank() != 0 {
					n.Main(func(ctx *hc.Ctx) {
						if err := s.Run(ctx); err != nil {
							t.Errorf("rank %d Run: %v", c.Rank(), err)
						}
					})
					return
				}
				s.taken = func(wid int) {
					if rw := rootWorker.Load(); rw >= 0 && int32(wid) != rw {
						close(inHand)
						<-release
					}
				}
				s.Submit("root", nil)

				finished := make(chan error, 1)
				go n.Main(func(ctx *hc.Ctx) { finished <- s.Run(ctx) })

				<-inHand
				// Wait for the root's driver to retire the root: from then
				// on it finds nothing and walks the idle path.
				for s.Stats().Executed < 1 {
					runtime.Gosched()
				}
				for i := 0; i < 2000; i++ {
					if s.quiescent() {
						t.Errorf("round %d: quiescent() with a taken frame unrun", i)
						break
					}
					if act, _, _ := s.bar.Advance(s.quiescent()); act == ActionTerminate {
						t.Errorf("round %d: barrier terminated with a taken frame unrun", i)
						break
					}
					if s.done.Load() {
						t.Errorf("round %d: scheduler done with a taken frame unrun", i)
						break
					}
					runtime.Gosched()
				}
				close(release)
				if err := <-finished; err != nil {
					t.Errorf("Run: %v", err)
				}
				if !leafRan.Load() {
					t.Error("leaf never ran")
				}
				if st := s.Stats(); st.Spawned+st.MigratedIn != st.Executed+st.MigratedOut+st.Dropped {
					t.Errorf("conservation: %+v", st)
				}
				if !s.quiescent() {
					t.Error("not quiescent after a clean run")
				}
			})
		})
	}
}
