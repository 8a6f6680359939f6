package hcmpi

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"

	"hcmpi/internal/hc"
	"hcmpi/internal/invariant"
	"hcmpi/internal/mpi"
	"hcmpi/internal/netsim"
	"hcmpi/internal/trace"
)

const tagBox = -103

// boxSink is the receiving side of the outbox tests: a listener that
// counts frames and 8-byte sequence-number records, each exactly once.
type boxSink struct {
	frames atomic.Int64
	seen   []atomic.Int32
	got    atomic.Int64
}

func listenBox(t *testing.T, n *Node, records int) *boxSink {
	s := &boxSink{seen: make([]atomic.Int32, records)}
	last := int64(-1) // frames arrive whole and in order on a loss-free link
	n.Listen(tagBox, func(_ int, payload []byte) {
		s.frames.Add(1)
		if len(payload)%8 != 0 {
			t.Errorf("frame of %d bytes is not a whole number of records", len(payload))
		}
		for ; len(payload) >= 8; payload = payload[8:] {
			seq := int64(binary.LittleEndian.Uint64(payload))
			if seq <= last {
				t.Errorf("record %d arrived after record %d", seq, last)
			}
			last = seq
			s.seen[seq].Add(1)
			s.got.Add(1)
		}
	})
	return s
}

func (s *boxSink) check(t *testing.T) {
	t.Helper()
	for seq := range s.seen {
		if c := s.seen[seq].Load(); c != 1 {
			t.Errorf("record %d delivered %d times", seq, c)
		}
	}
}

func appendSeq(o *Outbox, from, to int) {
	var rec [8]byte
	for seq := from; seq < to; seq++ {
		binary.LittleEndian.PutUint64(rec[:], uint64(seq))
		o.Append(rec[:])
	}
}

func counter(n *Node, name string) int64 { return n.Metrics().Counter(name).Load() }

// Records appended while the engine cannot sweep leave together: one
// flush task, bound at dispatch, however many records it finds — and a
// burst larger than the frame cap splits into full frames, in order.
func TestOutboxBurstRidesOneFrame(t *testing.T) {
	const burst = 100
	const big = 2*FrameCap/8 + burst // two full frames and a partial one
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		sink := listenBox(t, n, burst+big)
		n.Barrier(ctx)
		if n.Rank() == 0 {
			o := n.NewOutbox(1, tagBox, "box")
			n.sweepMu.Lock() // the communication worker is busy
			appendSeq(o, 0, burst)
			dispatched := n.StatsSnapshot().Dispatched
			n.sweepMu.Unlock()
			eventually(t, "the burst's frame", func() bool { return counter(n, "box_frames_sent") == 1 })
			if d := n.StatsSnapshot().Dispatched - dispatched; d != 1 {
				t.Errorf("%d records cost %d communication tasks, want 1", burst, d)
			}

			n.sweepMu.Lock()
			appendSeq(o, burst, burst+big)
			n.sweepMu.Unlock()
			eventually(t, "the split burst", func() bool { return counter(n, "box_records_sent") == burst+big })
			if f := counter(n, "box_frames_sent") - 1; f != 3 {
				t.Errorf("%d records of 8 bytes left in %d frames, want 3 under a %d-byte cap", big, f, FrameCap)
			}
		}
		n.Barrier(ctx)
		if n.Rank() == 1 {
			if sink.frames.Load() != 4 || sink.got.Load() != burst+big {
				t.Errorf("received %d frames carrying %d records, want 4 and %d", sink.frames.Load(), sink.got.Load(), burst+big)
			}
			sink.check(t)
		}
	})
}

// A lone record on an idle node is one message, sent at once (there is
// no timer to wait out), and a record larger than the cap travels alone
// and intact.
func TestOutboxLoneAndOversizedRecords(t *testing.T) {
	huge := make([]byte, FrameCap+4096)
	for i := range huge {
		huge[i] = byte(i * 7)
	}
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		var sizes []int
		var intact atomic.Bool
		n.Listen(tagBox, func(_ int, payload []byte) {
			sizes = append(sizes, len(payload)) // callbacks run one at a time
			if len(payload) == len(huge) {
				intact.Store(bytes.Equal(payload, huge))
			}
		})
		n.Barrier(ctx)
		if n.Rank() == 0 {
			o := n.NewOutbox(1, tagBox, "box")
			for i := 1; i <= 3; i++ {
				o.Append([]byte{1, 2, 3})
				eventually(t, "a lone record", func() bool { return counter(n, "box_frames_sent") == int64(i) })
			}
			n.sweepMu.Lock()
			o.Append([]byte{9}, []byte{9, 9}) // one record in two parts
			o.Append(huge)
			o.Append([]byte{7})
			n.sweepMu.Unlock()
			eventually(t, "the oversized record", func() bool { return counter(n, "box_frames_sent") == 6 })
		}
		n.Barrier(ctx)
		if n.Rank() == 1 {
			want := []int{3, 3, 3, 3, len(huge), 1}
			if len(sizes) != len(want) {
				t.Fatalf("frame sizes %v, want %v", sizes, want)
			}
			for i := range want {
				if sizes[i] != want[i] {
					t.Fatalf("frame sizes %v, want %v", sizes, want)
				}
			}
			if !intact.Load() {
				t.Error("the oversized record arrived damaged")
			}
		}
	})
}

// A frame the network drops is retransmitted whole by mpi's send core:
// no record is lost, none is delivered twice, and the frame's buffer is
// neither leaked to a later frame nor recycled while a resend still
// needs it (the race detector and the poison pattern of -tags
// hcmpi_debug watch the latter).
func TestOutboxDropRetransmitsWholeFrame(t *testing.T) {
	const frames, perFrame = 40, 25
	cfg := Config{Workers: 1}
	var retries int64
	w := runChaos(t, 2, netsim.Faults{Seed: chaosSeed, DropProb: 0.3}, cfg, func(n *Node, ctx *hc.Ctx) {
		sink := &boxSink{seen: make([]atomic.Int32, frames*perFrame)}
		n.Listen(tagBox, func(_ int, payload []byte) {
			if len(payload) != perFrame*8 {
				t.Errorf("seed=%#x: frame of %d bytes, want %d: a retransmission split it", chaosSeed, len(payload), perFrame*8)
			}
			for ; len(payload) >= 8; payload = payload[8:] {
				sink.seen[binary.LittleEndian.Uint64(payload)].Add(1)
				sink.got.Add(1)
			}
		})
		n.Barrier(ctx)
		if n.Rank() == 0 {
			o := n.NewOutbox(1, tagBox, "box")
			for f := 0; f < frames; f++ {
				n.sweepMu.Lock()
				appendSeq(o, f*perFrame, (f+1)*perFrame)
				n.sweepMu.Unlock()
				eventually(t, "a frame to leave", func() bool { return counter(n, "box_frames_sent") == int64(f+1) })
			}
			eventually(t, "every frame to settle", func() bool {
				n.sweepMu.Lock()
				defer n.sweepMu.Unlock()
				return n.drained()
			})
			retries = n.StatsSnapshot().Retries
			if f := n.StatsSnapshot().Failures; f != 0 {
				t.Errorf("seed=%#x: %d frames failed for good", chaosSeed, f)
			}
		}
		n.Barrier(ctx)
		if n.Rank() == 1 {
			sink.check(t)
		}
	})
	if st := w.Net().Stats(); st.Dropped == 0 || retries == 0 {
		t.Fatalf("seed=%#x: %d messages dropped, %d retries: chaos inactive", chaosSeed, st.Dropped, retries)
	}
}

// The payload a listener sees is borrowed: once the callback returns the
// buffer is back in the transport's pool, so traffic through listeners
// recycles its staging buffers instead of allocating them, and a debug
// build poisons the bytes so a retained slice cannot go unnoticed.
func TestListenerPayloadIsBorrowed(t *testing.T) {
	const msgs = 200
	checked := make(chan struct{}) // rank 1 has looked at the bytes it retained; the pool may move on
	var got atomic.Int64           // messages rank 1's callback has returned from, less one
	runNodes(t, 2, 1, func(n *Node, ctx *hc.Ctx) {
		var retained []byte
		n.Listen(tagBox, func(_ int, payload []byte) {
			if n.Rank() == 1 && got.Add(1) == 1 {
				retained = payload //hclint:allow the rule under test: a retained payload must read as poison in debug builds
			}
		})
		n.Barrier(ctx)
		m := n.comm.Metrics()
		hit0, miss0 := m.Counter("buf_pool_hit").Load(), m.Counter("buf_pool_miss").Load()
		if n.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				n.SendReserved([]byte{0xAA, 0xAA, 0xAA, 0xAA}, 1, tagBox)
				eventually(t, "the callback", func() bool { return got.Load() > int64(i) }) // one buffer in flight
			}
			<-checked
			return
		}
		defer close(checked)
		eventually(t, "every message", func() bool { return got.Load() == msgs })
		n.sweepMu.Lock() // after the last callback's sweep
		first := retained[0]
		n.sweepMu.Unlock()
		hits, misses := m.Counter("buf_pool_hit").Load()-hit0, m.Counter("buf_pool_miss").Load()-miss0
		if hits < 9*misses {
			t.Errorf("staging buffers: %d pool hits, %d misses; listener payloads are not coming back", hits, misses)
		}
		if invariant.Enabled && first != 0xDB {
			t.Errorf("retained payload reads %#x after the callback, want the 0xDB poison", first)
		}
	})
}

// A frame is traced as one message: one EvSendPost on the driving track
// when the flush binds, carrying the record count, and one comm-task
// lifecycle (so dwell times stay per message, not per record).
func TestOutboxFrameTracedOnce(t *testing.T) {
	const records = 7
	tr := trace.New(trace.Config{})
	w := mpi.NewWorld(2, mpi.WithTracer(tr))
	w.Run(func(c *mpi.Comm) {
		n := NewNode(c, Config{Workers: 1, Tracer: tr})
		n.Listen(tagBox, func(int, []byte) {})
		n.Main(func(ctx *hc.Ctx) {
			n.Barrier(ctx)
			if n.Rank() == 0 {
				o := n.NewOutbox(1, tagBox, "box")
				n.sweepMu.Lock()
				appendSeq(o, 0, records)
				n.sweepMu.Unlock()
				eventually(t, "the frame", func() bool { return counter(n, "box_frames_sent") == 1 })
			}
		})
		n.Close()
	})
	frames := 0
	for _, te := range tr.Snapshot() {
		if te.Kind == trace.TrackMPI {
			continue // the endpoint's own posts: A = peer, B = tag
		}
		for _, e := range te.Events {
			if e.Kind == trace.EvSendPost {
				frames++
				if e.A != 1 || e.B != records {
					t.Errorf("frame traced with peer %d and %d records, want 1 and %d", e.A, e.B, records)
				}
			}
		}
	}
	if frames != 1 {
		t.Errorf("%d frame events for one frame", frames)
	}
}
