package trace

import (
	"sync"
	"testing"
)

// fakeClock returns a deterministic, strictly increasing now().
func fakeClock(step int64) func() int64 {
	var mu sync.Mutex
	var t int64
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		t += step
		return t
	}
}

func TestNilTracerAndRing(t *testing.T) {
	var tr *Tracer
	r := tr.Register(0, 0, "w", TrackCompute)
	if r != nil {
		t.Fatalf("nil tracer registered a ring")
	}
	r.Emit(EvTaskStart, 0, 0) // must not panic
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil ring snapshot = %v", got)
	}
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("nil ring has state")
	}
	if snap := tr.Snapshot(); snap != nil {
		t.Fatalf("nil tracer snapshot = %v", snap)
	}
	if rep := tr.BuildReport(); rep == nil || rep.Events != 0 {
		t.Fatalf("nil tracer report = %+v", rep)
	}
}

func TestRingDropOldest(t *testing.T) {
	tr := New(Config{RingSize: 8, now: fakeClock(1)})
	r := tr.Register(0, 0, "w", TrackCompute)
	for i := 0; i < 20; i++ {
		r.Emit(EvTaskSpawn, int64(i), 0)
	}
	if got, want := r.Dropped(), int64(12); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	if got, want := r.Len(), 8; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot has %d events, want 8", len(evs))
	}
	// Drop-oldest: the surviving events are the most recent 8, in order.
	for i, e := range evs {
		if want := int64(12 + i); e.A != want {
			t.Fatalf("event %d has A=%d, want %d (oldest dropped first)", i, e.A, want)
		}
	}
}

func TestRingSizeRounding(t *testing.T) {
	tr := New(Config{RingSize: 100})
	if tr.cfg.RingSize != 128 {
		t.Fatalf("RingSize 100 rounded to %d, want 128", tr.cfg.RingSize)
	}
	tr = New(Config{})
	if tr.cfg.RingSize != 1<<14 {
		t.Fatalf("default RingSize = %d, want %d", tr.cfg.RingSize, 1<<14)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	tr := New(Config{})
	a := tr.Register(3, 7, "x", TrackComm)
	b := tr.Register(3, 7, "renamed", TrackCompute)
	if a != b {
		t.Fatalf("re-registering (3,7) returned a different ring")
	}
	if n := len(tr.Snapshot()); n != 1 {
		t.Fatalf("%d tracks after duplicate register, want 1", n)
	}
}

// TestRingConcurrentWriters hammers one ring from many goroutines while a
// reader snapshots it; run under -race this is the data-race proof, and
// the assertions check no torn event survives a snapshot.
func TestRingConcurrentWriters(t *testing.T) {
	tr := New(Config{RingSize: 64})
	r := tr.Register(0, 0, "shared", TrackMPI)
	const writers = 8
	const perWriter = 5000
	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() { // concurrent reader
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Snapshot() {
				// Writers always emit A == B; a torn slot that slipped
				// through the sequence check would break the pairing.
				if e.A != e.B {
					t.Errorf("torn event surfaced: A=%d B=%d", e.A, e.B)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				v := int64(w*perWriter + i)
				r.Emit(EvSendPost, v, v)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerDone.Wait()
	if got := r.pos.Load(); got != writers*perWriter {
		t.Fatalf("pos = %d, want %d", got, writers*perWriter)
	}
	for _, e := range r.Snapshot() {
		if e.A != e.B {
			t.Fatalf("torn event in final snapshot: A=%d B=%d", e.A, e.B)
		}
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("b_second")
	c.Inc()
	c.Add(4)
	m.Counter("a_first").Add(2)
	m.Counter("zero") // registered but never incremented
	if got := m.Counter("b_second"); got != c {
		t.Fatalf("re-registering a counter returned a new instance")
	}
	snap := m.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	if snap[0].Name != "a_first" || snap[0].Value != 2 ||
		snap[1].Name != "b_second" || snap[1].Value != 5 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got, want := m.Summary(), "a_first=2 b_second=5"; got != want {
		t.Fatalf("Summary = %q, want %q (zeros skipped)", got, want)
	}

	other := NewMetrics()
	other.Counter("b_second").Add(10)
	other.Counter("c_third").Add(1)
	m.Merge(other)
	if got := m.Counter("b_second").Load(); got != 15 {
		t.Fatalf("merged b_second = %d, want 15", got)
	}
	if got := m.Counter("c_third").Load(); got != 1 {
		t.Fatalf("merged c_third = %d, want 1", got)
	}
}

func TestMetricsNilSafety(t *testing.T) {
	var m *Metrics
	c := m.Counter("x")
	if c != nil {
		t.Fatalf("nil registry returned a counter")
	}
	c.Add(3)
	c.Inc()
	if c.Load() != 0 {
		t.Fatalf("nil counter loaded non-zero")
	}
	if m.Snapshot() != nil || m.Summary() != "(no activity)" {
		t.Fatalf("nil registry has state")
	}
	m.Merge(NewMetrics()) // no panic
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Counter("shared").Inc()
				m.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("shared").Load(); got != 8000 {
		t.Fatalf("shared = %d, want 8000", got)
	}
}

func TestSnapshotSortedByTrack(t *testing.T) {
	tr := New(Config{now: fakeClock(1)})
	tr.Register(1, 5, "b", TrackComm)
	tr.Register(0, 9, "a", TrackCompute)
	tr.Register(1, 2, "c", TrackCompute)
	snap := tr.Snapshot()
	want := [][2]int{{0, 9}, {1, 2}, {1, 5}}
	for i, te := range snap {
		if te.Pid != want[i][0] || te.Tid != want[i][1] {
			t.Fatalf("track %d = (%d,%d), want %v", i, te.Pid, te.Tid, want[i])
		}
	}
}

// TestRingLappedWriterDropsNotTears shares each slot of a two-slot ring
// among eight writers, so writers a lap apart meet on a slot all the
// time. A writer that a newer one has lapped must give its event up, not
// store its fields over an event the newer writer has committed: a
// concurrent Snapshot may never see A != B. What the ring does not hold
// is counted as dropped.
func TestRingLappedWriterDropsNotTears(t *testing.T) {
	const writers, perWriter, rounds = 8, 2000, 200
	for round := 0; round < rounds; round++ {
		tr := New(Config{RingSize: 2})
		r := tr.Register(0, 0, "shared", TrackMPI)
		stop := make(chan struct{})
		torn := make(chan Event, 1)
		var reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range r.Snapshot() {
					if e.A != e.B {
						torn <- e
						return
					}
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					v := int64(w*perWriter + i)
					r.Emit(EvSendPost, v, v)
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		reader.Wait()
		select {
		case e := <-torn:
			t.Fatalf("round %d: torn event surfaced: A=%d B=%d", round, e.A, e.B)
		default:
		}
		final := r.Snapshot()
		for _, e := range final {
			if e.A != e.B {
				t.Fatalf("round %d: torn event in final snapshot: A=%d B=%d", round, e.A, e.B)
			}
		}
		if held, emitted := int64(len(final)), int64(writers*perWriter); r.Dropped() < emitted-held {
			t.Fatalf("round %d: %d events emitted, %d held, only %d counted dropped", round, emitted, held, r.Dropped())
		}
	}
}
