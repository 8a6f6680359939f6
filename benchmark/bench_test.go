package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestPercentileAndSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || percentile([]float64{7}, 99) != 7 {
		t.Error("percentile of an empty or single-element slice")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := relIQR(xs); math.Abs(got-2.0/3) > 1e-12 { // (4-2)/3
		t.Errorf("relIQR = %v, want 2/3", got)
	}
	if relIQR([]float64{3}) != 0 || relIQR([]float64{0, 0, 0}) != 0 {
		t.Error("relIQR of one value or of a zero median must be 0")
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i)
	}
	d := decimate(sorted, 11)
	if len(d) != 11 || d[0] != 0 || d[5] != 499 || d[10] != 999 {
		t.Errorf("decimate keeps the wrong ranks: %v", d)
	}
	if len(decimate(sorted[:5], 11)) != 5 {
		t.Error("decimate must keep a short slice whole")
	}
}

func TestVerdicts(t *testing.T) {
	at := func(v, spread float64) stat { return stat{Value: v, Spread: spread} }
	for _, c := range []struct {
		a, b  stat
		lower bool
		want  string
	}{
		{at(100, 0.01), at(105, 0.01), true, "same"},
		{at(100, 0.01), at(115, 0.01), true, "worse"},
		{at(100, 0.01), at(85, 0.01), true, "better"},
		{at(100, 0.01), at(115, 0.01), false, "better"},
		{at(100, 0.01), at(85, 0.01), false, "worse"},
		{at(100, 0.2), at(150, 0.01), true, "unresolved"},
		{at(100, 0.01), at(150, 0.2), true, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("verdict(%v → %v, lower=%v) = %s, want %s", c.a.Value, c.b.Value, c.lower, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: rootID, Name: "window", Start: 0, End: 100},
		{ID: opID(1), Parent: rootID, Op: 1, Name: "op", Start: 10, End: 60},
		{ID: opID(2), Parent: rootID, Op: 2, Name: "op", Start: 40, End: 90}, // overlaps op 1
		{ID: 7, Parent: opID(1), Op: 1, Name: "hcmpi.Isend", Start: 10, End: 20},
		{ID: 8, Parent: opID(1), Op: 1, Name: "hcmpi.Wait", Start: 55, End: 70}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{rootID: 20, opID(1): 35, opID(2): 50, 7: 10, 8: 15} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

// TestBenchmarkJSON checks that the metric and workload lists in the code
// are the ones BENCHMARK.json declares.
func TestBenchmarkJSON(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the code has %d, %d and %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the code", i, w.Name, workloads[i].name)
		}
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the code", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the code", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// smokeRun runs one workload's child in-process at -quick size.
func smokeRun(t *testing.T, w *workload, trace int) *result {
	t.Helper()
	cfg := config{workload: w.name, seed: 1, seconds: 1, trace: trace, quick: true}
	var got collected
	childMain(cfg, w, got.add)
	res, err := aggregate(cfg, w, got.wins, got.sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSmoke runs all seven workloads and the probes at -quick size and
// checks what they emit.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	start := time.Now()
	var pingP50 float64
	for _, w := range workloads {
		res := smokeRun(t, w, 1)
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			s, ok := res.EndToEnd[m.name]
			if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Value <= 0 || !nameOK.MatchString(m.name) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", w.name, m.name, s.Value, ok)
			}
		}
		for _, m := range perLayer {
			v, ok := res.PerLayer[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || !nameOK.MatchString(m.name) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", w.name, m.name, v, ok)
			}
		}
		checkSpans(t, w)
		l := res.PerLayer
		if w.name == "pingpong_8b" {
			pingP50 = res.EndToEnd["op_p50_us"].Value
			if !(l["netsim.rtt_p50_us"] <= l["mpi.rtt_p50_us"] && l["mpi.rtt_p50_us"] <= pingP50) {
				t.Errorf("ladder out of order: netsim %v, mpi %v, pingpong %v µs",
					l["netsim.rtt_p50_us"], l["mpi.rtt_p50_us"], pingP50)
			}
		}
		// Each layer's counters move only on the workloads that use it.
		for name, on := range map[string]bool{
			"mpi.tcp.frames_per_flush":      w.name == "tcp_stream_64k",
			"distsched.steal_req_per_solve": w.name == "uts_t3mid",
			"dddf.data_msgs_per_op":         w.name == "dddf_fetch_1k" || w.name == "sw_dddf",
		} {
			if (l[name] != 0) != on {
				t.Errorf("%s: %s = %v", w.name, name, l[name])
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("-quick took %v, want under 15 s", d)
	}
}

func checkSpans(t *testing.T, w *workload) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(outDir, "trace-"+w.name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) < 3 || len(spans) > maxSpans {
		t.Errorf("%s: %d spans", w.name, len(spans))
	}
	byID := map[int64]bool{}
	for _, s := range spans {
		if byID[s.ID] {
			t.Errorf("%s: span id %d used twice", w.name, s.ID)
		}
		byID[s.ID] = true
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %s ends before it starts", w.name, s.Name)
		}
		if s.Parent != 0 && !byID[s.Parent] {
			t.Errorf("%s: span %s (op %d) names a parent that was not recorded", w.name, s.Name, s.Op)
		}
		if self[s.ID] < 0 {
			t.Errorf("%s: span %s has self time %d", w.name, s.Name, self[s.ID])
		}
	}
}

// TestUnfinishedWindowIsCounted: when the measuring subprocess dies or is
// killed, the window it was in counts as failed, on top of what completed.
func TestUnfinishedWindowIsCounted(t *testing.T) {
	w := workloads[0]
	cfg := config{workload: w.name, quick: true}
	done := &window{Ops: w.quickOps, WallNS: 1e6, CPUNS: 1e6, SetupNS: 1e6, Lat: []int64{1000}}
	res, err := aggregate(cfg, w, []*window{done}, nil, errors.New("killed"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 2*w.quickOps || res.Failed != w.quickOps {
		t.Errorf("attempted %d failed %d, want %d and %d", res.Attempted, res.Failed, 2*w.quickOps, w.quickOps)
	}
	if _, err := aggregate(cfg, w, nil, nil, errors.New("killed")); err == nil {
		t.Error("a run without a single complete window must not report a result")
	}
}

// TestCorruptedOutputIsCounted damages one op's output on every workload
// and expects the check to count it, not to pass it.
func TestCorruptedOutputIsCounted(t *testing.T) {
	corruptOp = 1
	defer func() { corruptOp = -1 }()
	for _, w := range workloads {
		if res := smokeRun(t, w, 0); res.Failed < 1 || res.Failed > 2 {
			t.Errorf("%s: %d ops counted as failed after one was damaged", w.name, res.Failed)
		}
	}
}
