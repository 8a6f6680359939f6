package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// stampClock hands out preprogrammed timestamps in order.
func stampClock(stamps ...int64) func() int64 {
	i := 0
	return func() int64 {
		s := stamps[i]
		i++
		return s
	}
}

func TestBuildReport(t *testing.T) {
	t.Run("dedicated", func(t *testing.T) { testBuildReport(t, false) })
	// A sweep driven by a computation worker records the transitions it
	// makes on that worker's track; the report must merge the two.
	t.Run("stolen-sweep", func(t *testing.T) { testBuildReport(t, true) })
}

func testBuildReport(t *testing.T, stolen bool) {
	// One rank, one worker busy [100,300) and [500,600); one comm op
	// ACTIVE [200,550) — so 150ns of its 350ns in-flight window overlap
	// compute ([200,300) and [500,550)).
	tr := New(Config{now: stampClock(
		100, 300, 500, 600, // worker: start end start end
		0, 150, 200, 550, 560, // comm: ALLOCATED PRESCRIBED ACTIVE COMPLETED AVAILABLE
		120, 130, 140, // steals: attempt success fail
	)})
	w := tr.Register(0, 0, "worker 0", TrackCompute)
	comm := tr.Register(0, 1, "comm", TrackComm)

	w.Emit(EvTaskStart, 0, 0)
	w.Emit(EvTaskEnd, 0, 0)
	w.Emit(EvTaskStart, 0, 0)
	w.Emit(EvTaskEnd, 0, 0)

	sweep := comm
	if stolen {
		sweep = w
	}
	comm.Emit(EvCommState, 9, CommAllocated)
	comm.Emit(EvCommState, 9, CommPrescribed)
	sweep.Emit(EvCommState, 9, CommActive)
	sweep.Emit(EvCommState, 9, CommCompleted)
	sweep.Emit(EvCommState, 9, CommAvailable)

	w.Emit(EvStealAttempt, 1, 0)
	w.Emit(EvStealSuccess, 1, 0)
	w.Emit(EvStealFail, 1, 0)

	rep := tr.BuildReport()
	if rep.Wall != 600*time.Nanosecond { // min TS 0, max TS 600
		t.Errorf("Wall = %v, want 600ns", rep.Wall)
	}
	if len(rep.Ranks) != 1 {
		t.Fatalf("Ranks = %d, want 1", len(rep.Ranks))
	}
	rr := &rep.Ranks[0]

	if len(rr.Workers) != 1 {
		t.Fatalf("Workers = %d, want 1", len(rr.Workers))
	}
	if got, want := rr.Workers[0].Busy, 300*time.Nanosecond; got != want {
		t.Errorf("Busy = %v, want %v", got, want)
	}
	if got, want := rr.Workers[0].Util, 0.5; got != want {
		t.Errorf("Util = %v, want %v", got, want)
	}

	if rr.StealAttempts != 1 || rr.StealSuccesses != 1 || rr.StealFails != 1 {
		t.Errorf("steals = %d/%d/%d, want 1/1/1", rr.StealAttempts, rr.StealSuccesses, rr.StealFails)
	}
	if got := rr.StealRate(); got != 1.0 {
		t.Errorf("StealRate = %v, want 1.0", got)
	}

	if rr.CommOps != 1 {
		t.Errorf("CommOps = %d, want 1", rr.CommOps)
	}
	// overlap = |[200,550) ∩ ([100,300) ∪ [500,600))| / 350 = 150/350.
	if want := 150.0 / 350.0; rr.Overlap < want-1e-9 || rr.Overlap > want+1e-9 {
		t.Errorf("Overlap = %v, want %v", rr.Overlap, want)
	}

	// Dwell: ALLOCATED 0→150, PRESCRIBED 150→200, ACTIVE 200→550,
	// COMPLETED 550→560.
	wantDwell := map[string]time.Duration{
		"ALLOCATED": 150, "PRESCRIBED": 50, "ACTIVE": 350, "COMPLETED": 10,
	}
	for name, want := range wantDwell {
		if got := rr.Dwell[name]; got != want {
			t.Errorf("Dwell[%s] = %v, want %v", name, got, want)
		}
	}
}

func TestReportFaultCounts(t *testing.T) {
	tr := New(Config{now: fakeClock(10)})
	net := tr.Register(NetPid, 0, "faults", TrackNet)
	net.Emit(EvFaultDrop, 0, 1)
	net.Emit(EvFaultDrop, 1, 0)
	net.Emit(EvFaultDup, 0, 1)
	net.Emit(EvFaultSpike, 1, 0)
	rep := tr.BuildReport()
	if rep.Faults.Drops != 2 || rep.Faults.Dups != 1 || rep.Faults.Spikes != 1 {
		t.Errorf("Faults = %+v, want 2/1/1", rep.Faults)
	}
	// The net pseudo-rank must not appear as a rank report.
	if len(rep.Ranks) != 0 {
		t.Errorf("net track leaked into rank reports: %+v", rep.Ranks)
	}
}

func TestReportRender(t *testing.T) {
	tr := buildFixture()
	var buf bytes.Buffer
	tr.WriteReport(&buf)
	out := buf.String()
	for _, want := range []string{"trace report:", "rank 0:", "utilization:", "steals:", "comm: 1 ops", "faults: drops=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	var empty bytes.Buffer
	New(Config{}).WriteReport(&empty)
	if !strings.Contains(empty.String(), "no events") {
		t.Errorf("empty report = %q", empty.String())
	}
}

func TestIntervalHelpers(t *testing.T) {
	merged := mergeIntervals([]interval{{5, 10}, {0, 3}, {2, 6}, {20, 25}})
	want := []interval{{0, 10}, {20, 25}}
	if len(merged) != len(want) {
		t.Fatalf("merged = %v, want %v", merged, want)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("merged = %v, want %v", merged, want)
		}
	}
	if got := sumIntervals(merged); got != 15 {
		t.Errorf("sum = %d, want 15", got)
	}
	if got := intersectTotal(merged, []interval{{8, 22}}); got != 4 {
		t.Errorf("intersect = %d, want 4 (2 from [8,10) + 2 from [20,22))", got)
	}
}
