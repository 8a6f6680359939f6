// Command hcbench is the repository's benchmark: seven closed-loop
// workloads over the real runtime, end-to-end metrics with regression
// bounds, and a traced pass that attributes time to the layers
// netsim → mpi → hcmpi → dddf/distsched. See README.md.
//
//	go run ./benchmark --workload pingpong_8b --seed 1 --seconds 14 --trace 0
//	go run ./benchmark -trace 1 -out benchmark/out/a.json     (every workload)
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// outDir is where span files go, relative to the repository root the
// benchmark is run from.
var outDir = "benchmark/out"

type config struct {
	workload      string
	seed          int64
	seconds       int
	trace         int
	quick         bool
	allowFailures bool
	out           string
}

// summary is the child's last event.
type summary struct {
	GenS   float64            `json:"gen_s"`
	Layers map[string]float64 `json:"layers,omitempty"`  // per-layer metrics (traced pass)
	SelfMS map[string]float64 `json:"self_ms,omitempty"` // span self time per layer (traced pass)
}

// stat is one end-to-end metric of one run.
type stat struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"` // how far Value may be off: the windows' relative IQR / √windows
	N      int     `json:"n"`      // windows (or pooled latency samples) behind Value
}

// result is one run of one workload.
type result struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]stat    `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	SelfMS    map[string]float64 `json:"self_ms,omitempty"`
}

// runInfo is echoed with every result so numbers can be traced to the
// machine and commit that made them.
type runInfo struct {
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// resultFile is what a run over every workload writes and -compare reads.
type resultFile struct {
	Info      runInfo            `json:"info"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	var cfg config
	var child bool
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: every workload in turn)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of all input generation")
	flag.IntVar(&cfg.seconds, "seconds", 14, "how long one run measures")
	flag.IntVar(&cfg.trace, "trace", 0, "1: traced pass and ladder probes, reporting the per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny sizes and one window: a smoke run, not a measurement")
	flag.BoolVar(&cfg.allowFailures, "allow-failures", false, "exit 0 even when ops failed")
	flag.StringVar(&cfg.out, "out", "", "write the results of a run over every workload to this file")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.BoolVar(&child, "child", false, "internal: run as the measuring subprocess")
	flag.Parse()

	switch {
	case child:
		childMain(cfg, findWorkload(cfg.workload), emitJSON)
	case compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case cfg.workload != "":
		w := findWorkload(cfg.workload)
		if w == nil {
			fatal("unknown workload %q", cfg.workload)
		}
		res, err := runWorkload(cfg, w)
		if err != nil {
			fatal("%v", err)
		}
		printResult(cfg, w, res)
		printDriverLine(cfg, res)
		if res.Failed > 0 && !cfg.allowFailures {
			os.Exit(1)
		}
	default:
		os.Exit(runAll(cfg))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hcbench: "+format+"\n", args...)
	os.Exit(2)
}

func emitJSON(ev event) {
	if err := json.NewEncoder(os.Stdout).Encode(ev); err != nil {
		fatal("write event: %v", err)
	}
}

// --- child: the measuring subprocess ---

// childMain generates the inputs, runs windows for cfg.seconds and emits
// one event per window. With tracing it alternates untraced and traced
// windows for half the time, then runs the ladder probes.
func childMain(cfg config, w *workload, emit func(event)) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	in := generate(w, cfg.seed, cfg.quick)
	ops, warm := w.opsFor(cfg.quick), w.warmFor(cfg.quick)
	budget := time.Duration(cfg.seconds) * time.Second
	sum := &summary{GenS: in.genS}
	if !cfg.quick {
		warmMachine()
	}

	if cfg.trace == 0 {
		for t0 := time.Now(); ; {
			emit(event{Window: measure(w, in, ops, warm, nil)})
			if cfg.quick || time.Since(t0) >= budget {
				break
			}
		}
	} else {
		l := &layerInput{w: w, in: in, c: counters{}, sp: newSpanStats()}
		var traced, untraced []float64
		for t0 := time.Now(); ; {
			u := measure(w, in, ops, warm, nil)
			emit(event{Window: u})
			untraced = append(untraced, rate(u))

			tr := newTracer()
			t := measure(w, in, ops, warm, tr)
			emit(event{Window: t})
			traced = append(traced, rate(t))
			spans := tr.all()
			l.sp.add(spans)
			if len(traced) == 1 {
				if err := writeSpans(outDir, w.name, spans); err != nil {
					fatal("write spans: %v", err)
				}
			}
			l.c.merge(t.counters)
			l.ops += float64(t.Ops)
			l.wallS += float64(t.WallNS) / 1e9
			if cfg.quick || time.Since(t0) >= budget/2 {
				break
			}
		}
		l.tracedRate, l.untracedRate = median(traced), median(untraced)
		l.pr = runProbes(cfg.quick)
		sum.Layers = layerMetrics(l)
		sum.SelfMS = map[string]float64{}
		for layer, ns := range l.sp.selfNS {
			sum.SelfMS[layer] = float64(ns) / 1e6
		}
	}
	emit(event{Final: sum})
}

// measure runs one window and notes the peak resident set it reached.
// Writing 5 to clear_refs resets the process's high-water mark to its
// current size, so every window reports its own peak and a run reports
// the median window, not the luckiest or unluckiest GC cycle of 14 s.
// Where the reset is not permitted the windows report the process-wide
// mark, which is still a peak.
func measure(w *workload, in *inputs, ops, warm int, tr *tracer) *window {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	win := w.window(in, ops, warm, tr)
	win.PeakRSS = peakRSSKB()
	return win
}

// peakRSSKB reads this process's resident-set high-water mark. It is
// VmHWM and not getrusage's ru_maxrss because ru_maxrss survives exec: a
// freshly exec'd child starts at its parent's resident size, so a small
// workload would report the size of `go run`.
func peakRSSKB() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fatal("peak RSS: %v", err)
	}
	_, rest, ok := strings.Cut(string(status), "VmHWM:")
	if !ok {
		fatal("peak RSS: no VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
	if err != nil {
		fatal("peak RSS: %v", err)
	}
	return kb
}

// warmMachine keeps every processor busy for a second before the first
// window. On the reference VM a machine that has idled for some seconds
// runs ≈30 % slower until about half a second of load on all processors
// has brought it back, and pingpong_8b — whose workers then start to hit
// 1 ms timer sleeps — runs 5× slower and stays there; without this, a
// run's numbers say how long ago the previous run ended (README,
// "Steadiness").
func warmMachine() {
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t0 := time.Now(); time.Since(t0) < time.Second; {
			}
		}()
	}
	wg.Wait()
}

func rate(w *window) float64 { return float64(w.Ops-w.Failed) / (float64(w.WallNS) / 1e9) }

// --- parent: watchdog and aggregation ---

// runWorkload measures one workload in a fresh subprocess and turns its
// windows into the end-to-end metrics.
func runWorkload(cfg config, w *workload) (*result, error) {
	var got collected
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(cfg.trace)}
	if cfg.quick {
		args = append(args, "-quick")
	}
	// The watchdog leaves room for input generation, one window of
	// overshoot and the probes, and stays inside the driver's 180 s.
	limit := min(time.Duration(cfg.seconds)*time.Second+90*time.Second, 170*time.Second)
	err := runChild(args, limit, got.add)
	return aggregate(cfg, w, got.wins, got.sum, err)
}

// collected is what a child has emitted so far.
type collected struct {
	wins []*window
	sum  *summary
}

func (c *collected) add(ev event) {
	if ev.Window != nil {
		c.wins = append(c.wins, ev.Window)
	}
	if ev.Final != nil {
		c.sum = ev.Final
	}
}

// aggregate computes a run's result from its windows. childErr is the
// measuring subprocess's fate: when it died or was killed, the window it
// was in never reported, and all of that window's ops count as failed.
func aggregate(cfg config, w *workload, wins []*window, sum *summary, childErr error) (*result, error) {
	res := &result{EndToEnd: map[string]stat{}}
	var setup, rates, cpu, rss, p50s, tails []float64
	var pooled []float64
	for _, win := range wins {
		res.Attempted += win.Ops
		res.Failed += win.Failed
		if win.Traced {
			continue // end-to-end numbers come from the untraced pass only
		}
		lat := nsToUS(win.Lat)
		setup = append(setup, float64(win.SetupNS)/1e9)
		rates = append(rates, rate(win))
		cpu = append(cpu, float64(win.CPUNS)/1e3/float64(win.Ops))
		rss = append(rss, float64(win.PeakRSS)/1024)
		p50s = append(p50s, percentile(lat, 50))
		tails = append(tails, percentile(lat, w.tailPct))
		pooled = append(pooled, lat...)
	}
	if childErr != nil {
		fmt.Fprintf(os.Stderr, "hcbench: %s: %v; counting the unfinished window's %d ops as failed\n",
			w.name, childErr, w.opsFor(cfg.quick))
		res.Attempted += w.opsFor(cfg.quick)
		res.Failed += w.opsFor(cfg.quick)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("%s: no complete window to report (%v)", w.name, childErr)
	}
	pooled = sortedCopy(pooled)
	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.name] = m.unit
	}
	put := func(name string, value, spread float64, n int) {
		res.EndToEnd[name] = stat{Value: value, Unit: units[name], Spread: spread, N: n}
	}
	put("setup_s", median(setup), medianSpread(setup), len(setup))
	put("ops_per_s", median(rates), medianSpread(rates), len(rates))
	put("op_p50_us", percentile(pooled, 50), medianSpread(p50s), len(pooled))
	put("op_tail_us", percentile(pooled, w.tailPct), medianSpread(tails), len(pooled))
	put("cpu_us_per_op", median(cpu), medianSpread(cpu), len(cpu))
	put("peak_rss_mb", median(rss), medianSpread(rss), len(rss))
	if sum != nil {
		res.PerLayer, res.SelfMS = sum.Layers, sum.SelfMS
	}
	return res, nil
}

// --- output ---

func info(cfg config) runInfo {
	return runInfo{Seed: cfg.seed, Seconds: cfg.seconds, NProc: runtime.NumCPU(),
		GOMAXPROCS: min(runtime.NumCPU(), 4), Go: runtime.Version(), Commit: headCommit()}
}

// headCommit is `git rev-parse HEAD` read from the files, so that a
// checkout that is not a repository costs nothing and reads "unknown".
func headCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	sha, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

func printResult(cfg config, w *workload, res *result) {
	inf, _ := json.Marshal(info(cfg)) // a struct of strings and ints always marshals
	fmt.Printf("hcbench %s trace=%d info=%s\n", w.name, cfg.trace, inf)
	fmt.Printf("  attempted=%d failed=%d fail_ratio=%g\n", res.Attempted, res.Failed,
		ratio(float64(res.Failed), float64(res.Attempted)))
	for _, m := range endToEnd {
		s := res.EndToEnd[m.name]
		label := m.name
		if m.name == "op_tail_us" {
			label = fmt.Sprintf("%s(p%g)", m.name, w.tailPct)
		}
		fmt.Printf("  %-30s %14.4f %-6s ±%4.1f%%  n=%d\n", label, s.Value, s.Unit, 100*s.Spread, s.N)
	}
	if res.PerLayer == nil {
		return
	}
	for _, m := range perLayer {
		fmt.Printf("  %-30s %14.4f %s\n", m.name, res.PerLayer[m.name], m.unit)
	}
	for _, layer := range sortedKeys(res.SelfMS) {
		fmt.Printf("  self time %-20s %14.3f ms (sampled spans)\n", layer, res.SelfMS[layer])
	}
}

// printDriverLine prints the last line the benchmark contract asks for.
func printDriverLine(cfg config, res *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if cfg.trace == 0 {
		for name, s := range res.EndToEnd {
			metrics[name] = value{s.Value, s.Unit}
		}
	} else {
		for _, m := range perLayer {
			metrics[m.name] = value{res.PerLayer[m.name], m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{"correct": res.Failed == 0, "attempted": res.Attempted,
		"failed": res.Failed, "metrics": metrics})
	if err != nil {
		fatal("result line: %v", err)
	}
	fmt.Println(string(line))
}

// runAll measures every workload in turn (untraced, and traced too with
// -trace 1) and writes one result file.
func runAll(cfg config) int {
	file := resultFile{Info: info(cfg), Workloads: map[string]*result{}}
	failed := 0
	for _, w := range workloads {
		c := cfg
		c.trace = 0
		res, err := runWorkload(c, w)
		if err != nil {
			fatal("%v", err)
		}
		if cfg.trace != 0 {
			c.trace = 1
			tres, err := runWorkload(c, w)
			if err != nil {
				fatal("%v", err)
			}
			res.PerLayer, res.SelfMS = tres.PerLayer, tres.SelfMS
			res.Attempted += tres.Attempted
			res.Failed += tres.Failed
		}
		printResult(cfg, w, res)
		file.Workloads[w.name] = res
		failed += res.Failed
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			fatal("result file: %v", err)
		}
		if err := os.WriteFile(cfg.out, data, 0o644); err != nil {
			fatal("%v", err)
		}
	}
	if failed > 0 && !cfg.allowFailures {
		return 1
	}
	return 0
}
