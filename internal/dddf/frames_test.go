package dddf

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
	"hcmpi/internal/mpi"
	"hcmpi/internal/mpi/mpitest"
	"hcmpi/internal/netsim"
)

// Tests of the aggregated wire protocol (DESIGN.md §17): how many frames
// a burst costs, that framing never changes what a guid's awaiter reads,
// and that a frame lost or split keeps the transfer at most once per
// guid and remote.

// tagHold is a spare reserved tag a test uses to keep the communication
// worker busy: a listener callback that does not return holds the sweep.
const tagHold = -291

// holdSweep blocks this rank's progress engine inside a listener
// callback until the returned release function is called.
func holdSweep(n *hcmpi.Node, entered, release chan struct{}) {
	n.Listen(tagHold, func(int, []byte) {
		entered <- struct{}{}
		<-release
	})
}

// value is guid's test value: size bytes no two guids share.
func value(guid int64, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte(guid>>uint(8*(i%3))) ^ byte(i*31)
	}
	return v
}

func framesSent(s *Space) int64  { return s.node.Metrics().Counter("dddf_frames_sent").Load() }
func recordsSent(s *Space) int64 { return s.node.Metrics().Counter("dddf_records_sent").Load() }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// A burst of remote awaits issued while the communication worker is busy
// leaves in as few register frames as the cap allows and is answered in
// proportionally few data frames — on both transports, with every value
// byte-exact, one transfer per guid, and frames larger than the cap
// split between records.
func TestBurstOfAwaitsAggregates(t *testing.T) {
	for _, tc := range []struct{ guids, size int }{
		{100, 100},                  // one register frame, one data frame
		{40, 4096},                  // the data outgrows the cap: it splits
		{hcmpi.FrameCap/8 + 100, 4}, // so do the registrations
		{1, hcmpi.FrameCap + 100},   // a value larger than any frame
	} {
		for _, b := range mpitest.Backends() {
			t.Run(fmt.Sprintf("%s/%dx%dB", b.Name, tc.guids, tc.size), func(t *testing.T) {
				home := func(int64) int { return 0 }
				b.Run(t, 2, func(c *mpi.Comm) {
					n := hcmpi.NewNode(c, hcmpi.Config{Workers: 2})
					s := NewSpace(n, home, nil)
					entered, release := make(chan struct{}), make(chan struct{})
					holdSweep(n, entered, release)
					n.Main(func(ctx *hc.Ctx) {
						if n.Rank() == 0 {
							for g := 0; g < tc.guids; g++ {
								s.Handle(int64(g)).Put(ctx, value(int64(g), tc.size))
							}
						}
						n.Barrier(ctx)
						if n.Rank() == 1 {
							n.SendReserved(nil, 1, tagHold)
							<-entered // the communication worker is busy from here on
							var bad atomic.Int32
							ctx.Finish(func(ctx *hc.Ctx) {
								for g := 0; g < tc.guids; g++ {
									h := s.Handle(int64(g))
									s.AsyncAwait(ctx, func(*hc.Ctx) {
										if !bytes.Equal(h.MustGet(), value(h.Guid(), tc.size)) {
											bad.Add(1)
										}
									}, h)
								}
								if f := framesSent(s); f != 0 {
									t.Errorf("%d frames left while the communication worker was held", f)
								}
								close(release)
							})
							if bad.Load() != 0 {
								t.Errorf("%d of %d values arrived damaged", bad.Load(), tc.guids)
							}
							if f, most := framesSent(s), int64(ceilDiv(tc.guids*guidBytes, hcmpi.FrameCap)+1); f > most {
								t.Errorf("%d registrations left in %d frames, want at most %d", tc.guids, f, most)
							}
						}
						n.Barrier(ctx)
						reg, data := s.Stats()
						switch n.Rank() {
						case 1:
							if reg != int64(tc.guids) || recordsSent(s) != reg {
								t.Errorf("%d guids: %d registrations in %d records", tc.guids, reg, recordsSent(s))
							}
						case 0:
							if data != int64(tc.guids) || recordsSent(s) != data {
								t.Errorf("%d guids: %d transfers in %d records", tc.guids, data, recordsSent(s))
							}
							// Each register frame is answered by the frames its
							// values fill.
							regFrames := ceilDiv(tc.guids*guidBytes, hcmpi.FrameCap) + 1
							most := int64(ceilDiv(tc.guids*(valueHeader+tc.size), hcmpi.FrameCap) + regFrames)
							if tc.size > hcmpi.FrameCap {
								most = int64(tc.guids) // oversized values travel alone
							}
							if f := framesSent(s); f > most {
								t.Errorf("%d values of %d bytes answered in %d frames, want at most %d", tc.guids, tc.size, f, most)
							}
						}
					})
					n.Close()
				})
			})
		}
	}
}

// A lone fetch on an idle node is still exactly one register message
// and one data message: aggregation adds no traffic, and (having no
// timer) no delay either.
func TestLoneFetchIsTwoMessages(t *testing.T) {
	w := mpi.NewWorld(2)
	fetched := make(chan struct{})
	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, hcmpi.Config{Workers: 1})
		s := NewSpace(n, func(int64) int { return 0 }, nil)
		n.Main(func(ctx *hc.Ctx) {
			h := s.Handle(7)
			if n.Rank() == 0 {
				h.Put(ctx, []byte("lone"))
				n.Barrier(ctx)
				<-fetched // stay off the network while rank 1 counts
				if f := framesSent(s); f != 1 {
					t.Errorf("home sent %d data frames for one fetch", f)
				}
				return
			}
			n.Barrier(ctx)
			time.Sleep(2 * time.Millisecond) // the barrier's last messages have landed
			before := w.Net().Stats().Messages
			ctx.Finish(func(ctx *hc.Ctx) {
				s.AsyncAwait(ctx, func(*hc.Ctx) {
					if string(h.MustGet()) != "lone" {
						t.Errorf("fetched %q", h.MustGet())
					}
				}, h)
			})
			if msgs := w.Net().Stats().Messages - before; msgs != 2 {
				t.Errorf("one remote fetch cost %d messages, want 2 (register, data)", msgs)
			}
			if f := framesSent(s); f != 1 {
				t.Errorf("consumer sent %d register frames for one fetch", f)
			}
			close(fetched)
		})
		n.Close()
	})
}

// Under seeded message loss a dropped multi-record frame is retransmitted
// whole: pulls, pushes and forwarded puts all complete byte-exact, no
// guid is lost, and none is transferred twice (a duplicate data record
// panics in onData, a duplicate put-forward in onPutFwd).
func TestChaosFrameDropLosesNoGuid(t *testing.T) {
	const seed = 0xD0DF
	const rounds, burst, size = 12, 24, 200
	home := func(guid int64) int { return int(guid & 1) }
	// guid = index<<2 | class<<1 | home: class 0 is put by its home (before
	// or after the consumer registers), class 1 by the consumer itself.
	guid := func(idx, class, home int) int64 { return int64(idx<<2 | class<<1 | home) }
	var retries atomic.Int64
	w := mpi.NewWorld(2, mpi.WithFaults(netsim.Faults{Seed: seed, DropProb: 0.2}))
	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, hcmpi.Config{Workers: 2})
		s := NewSpace(n, home, nil)
		n.Main(func(ctx *hc.Ctx) {
			me, peer := n.Rank(), 1-n.Rank()
			var bad, got atomic.Int32
			check := func(h *Handle) func(*hc.Ctx) {
				return func(*hc.Ctx) {
					got.Add(1)
					if !bytes.Equal(h.MustGet(), value(h.Guid(), size)) {
						bad.Add(1)
					}
				}
			}
			ctx.Finish(func(ctx *hc.Ctx) {
				for r := 0; r < rounds; r++ {
					for k := r * burst; k < (r+1)*burst; k++ {
						// Await the peer's guid, put mine: the two ranks run
						// unsynchronized, so registrations land before and
						// after the puts they ask for.
						h := s.Handle(guid(k, 0, peer))
						s.AsyncAwait(ctx, check(h), h)
						g := guid(k, 0, me)
						s.Handle(g).Put(ctx, value(g, size))
						// Put a guid the peer homes, and await the one it puts
						// here: a forwarded put answers the home's own await.
						g = guid(k, 1, peer)
						s.Handle(g).Put(ctx, value(g, size))
						h = s.Handle(guid(k, 1, me))
						s.AsyncAwait(ctx, check(h), h)
					}
				}
			})
			if got.Load() != 2*rounds*burst || bad.Load() != 0 {
				t.Errorf("seed=%#x rank %d: %d of %d awaits ran, %d read a damaged value", seed, me, got.Load(), 2*rounds*burst, bad.Load())
			}
			if reg, data := s.Stats(); reg != rounds*burst || data > rounds*burst {
				t.Errorf("seed=%#x rank %d: %d registrations and %d transfers for %d remote guids", seed, me, reg, data, rounds*burst)
			}
			retries.Add(n.StatsSnapshot().Retries)
			if f := n.StatsSnapshot().Failures; f != 0 {
				t.Errorf("seed=%#x rank %d: %d operations failed for good", seed, me, f)
			}
		})
		n.Close()
	})
	if st := w.Net().Stats(); st.Dropped == 0 || retries.Load() == 0 {
		t.Fatalf("seed=%#x: %d messages dropped, %d retries: chaos inactive", seed, st.Dropped, retries.Load())
	}
}

// steadyFetchAllocs is the allocation budget of one remote 1 KiB fetch
// in steady state, process-wide: both ranks' sides of the register/data
// round trip, the handle, the await and the finish around it. It was 21
// with one message per guid and an adopted 4 KiB slab per value.
const steadyFetchAllocs = 14

// TestRemoteFetchAllocFree pins the fetch path's allocations and checks
// that its staging buffers come from the pool once it is warm: listener
// payloads go back after every callback.
func TestRemoteFetchAllocFree(t *testing.T) {
	const runs, size = 400, 1024
	w := mpi.NewWorld(2)
	done := make(chan struct{})
	w.Run(func(c *mpi.Comm) {
		n := hcmpi.NewNode(c, hcmpi.Config{Workers: 1})
		s := NewSpace(n, func(int64) int { return 0 }, nil)
		n.Main(func(ctx *hc.Ctx) {
			if n.Rank() == 0 {
				for g := int64(0); g < 2*runs+2; g++ {
					s.Handle(g).Put(ctx, value(g, size))
				}
				n.Barrier(ctx)
				<-done // the home's computation worker stays out of the count
				return
			}
			n.Barrier(ctx)
			defer close(done)
			next := int64(0)
			fetch := func() {
				h := s.Handle(next)
				next++
				ctx.Finish(func(ctx *hc.Ctx) {
					s.AsyncAwait(ctx, func(*hc.Ctx) { _ = h.MustGet() }, h)
				})
			}
			for i := 0; i < runs; i++ {
				fetch() // warm the pools: requests, task frames, buffers
			}
			m := c.Metrics()
			hit0, miss0 := m.Counter("buf_pool_hit").Load(), m.Counter("buf_pool_miss").Load()
			if a := testing.AllocsPerRun(runs, fetch); a > steadyFetchAllocs {
				t.Errorf("one remote %d-byte fetch: %v allocations, want at most %d", size, a, steadyFetchAllocs)
			} else {
				t.Logf("one remote %d-byte fetch: %v allocations", size, a)
			}
			hits, misses := m.Counter("buf_pool_hit").Load()-hit0, m.Counter("buf_pool_miss").Load()-miss0
			if hits < 9*misses || hits == 0 {
				t.Errorf("frame buffers after warm-up: %d pool hits, %d misses, want a hit ratio of at least 0.9", hits, misses)
			}
		})
		n.Close()
	})
}
