// benchdiff snapshots `go test -bench` output as JSON and compares two
// snapshots, flagging time and allocation regressions. Stdlib only.
//
// Usage:
//
//	benchdiff save out.json [bench.txt]   parse bench output (stdin if no file)
//	benchdiff diff old.json new.json      print per-benchmark deltas
//
// Flags for diff:
//
//	-time-threshold pct   fail if ns/op regresses more than pct (default 20)
//	-check                exit 1 on any flagged regression (allocs/op may
//	                      never increase; ns/op within threshold)
//
// The GOMAXPROCS suffix (-8 etc.) is stripped from benchmark names so
// snapshots taken on machines with different core counts still line up.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Machine, on a baseline row refreshed by hand, says where and when
	// it was measured; rows without it predate the habit.
	Machine string `json:"machine,omitempty"`
}

type snapshot struct {
	Results []result `json:"results"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(\S+) ns/op(.*)$`)
var procSuffix = regexp.MustCompile(`-\d+$`)

func parse(r io.Reader) (snapshot, error) {
	var snap snapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		res := result{
			Name:       procSuffix.ReplaceAllString(m[1], ""),
			Iterations: iters,
			NsPerOp:    ns,
		}
		// Trailing metrics: "104 B/op  3 allocs/op" plus any custom ones.
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		snap.Results = append(snap.Results, res)
	}
	sort.Slice(snap.Results, func(i, j int) bool { return snap.Results[i].Name < snap.Results[j].Name })
	return snap, sc.Err()
}

func load(path string) (snapshot, error) {
	var snap snapshot
	b, err := os.ReadFile(path)
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(b, &snap)
}

func save(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: benchdiff save out.json [bench.txt]")
	}
	in := io.Reader(os.Stdin)
	if len(args) > 1 {
		f, err := os.Open(args[1])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	snap, err := parse(in)
	if err != nil {
		return err
	}
	if len(snap.Results) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(args[0], b, 0o644); err != nil {
		return err
	}
	fmt.Printf("saved %d benchmarks to %s\n", len(snap.Results), args[0])
	return nil
}

func pct(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "  ±0.0%"
		}
		return "   new"
	}
	d := (new - old) / old * 100
	return fmt.Sprintf("%+6.1f%%", d)
}

func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	timeThreshold := fs.Float64("time-threshold", 20, "max allowed ns/op regression, percent")
	check := fs.Bool("check", false, "exit 1 on flagged regressions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff diff [flags] old.json new.json")
	}
	oldSnap, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	newSnap, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	oldBy := map[string]result{}
	for _, r := range oldSnap.Results {
		oldBy[r.Name] = r
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-40s %14s %14s %8s %10s %10s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "Δtime", "old allocs", "new allocs", "Δallocs")
	regressions := 0
	for _, nr := range newSnap.Results {
		or, ok := oldBy[nr.Name]
		if !ok {
			fmt.Fprintf(w, "%-40s %14s %14.1f %8s %10s %10.0f %8s\n",
				nr.Name, "-", nr.NsPerOp, "new", "-", nr.AllocsPerOp, "new")
			continue
		}
		mark := ""
		if or.NsPerOp > 0 && (nr.NsPerOp-or.NsPerOp)/or.NsPerOp*100 > *timeThreshold {
			mark = "  << TIME REGRESSION"
			regressions++
		}
		if nr.AllocsPerOp > or.AllocsPerOp {
			mark += "  << ALLOC REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-40s %14.1f %14.1f %8s %10.0f %10.0f %8s%s\n",
			nr.Name, or.NsPerOp, nr.NsPerOp, pct(or.NsPerOp, nr.NsPerOp),
			or.AllocsPerOp, nr.AllocsPerOp, pct(or.AllocsPerOp, nr.AllocsPerOp), mark)
	}
	if *check && regressions > 0 {
		w.Flush()
		return fmt.Errorf("%d regression(s) flagged", regressions)
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff {save|diff} ...")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "save":
		err = save(os.Args[2:])
	case "diff":
		err = diff(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
