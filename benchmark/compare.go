package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verdict judges b against a for one (metric, workload) pair. The change
// is unresolved when either run's own spread is wider than the bound;
// otherwise b is worse (better) when its median is worse (better) than
// a's by more than the bound, and the same in between.
func verdict(a, b stat, lowerIsBetter bool, bound float64) string {
	if a.Spread > bound || b.Spread > bound {
		return "unresolved"
	}
	worse := ratio(b.Value-a.Value, a.Value) // relative change in the bad direction
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (metric, workload) and returns the
// exit code: 1 when any row is worse.
func compareFiles(pathA, pathB string) int {
	var spec benchSpec
	var a, b resultFile
	for path, into := range map[string]any{"BENCHMARK.json": &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, into); err != nil {
			fatal("%v", err)
		}
	}
	fmt.Printf("a: %s commit %s seed %d\nb: %s commit %s seed %d\n",
		pathA, a.Info.Commit, a.Info.Seed, pathB, b.Info.Commit, b.Info.Seed)
	fmt.Printf("%-16s %-14s %14s %7s %14s %7s %6s  %s\n",
		"workload", "metric", "a", "±a", "b", "±b", "bound", "verdict")
	code := 0
	for _, w := range spec.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			fatal("workload %s is missing from a result file", w.Name)
		}
		for _, m := range spec.EndToEnd {
			sa, sb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v := verdict(sa, sb, m.Better == "lower", m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-16s %-14s %14.4f %6.1f%% %14.4f %6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, sa.Value, 100*sa.Spread, sb.Value, 100*sb.Spread, 100*m.Bound, v)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Printf("%-16s failed ops: a %d of %d, b %d of %d\n", w.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			code = 1
		}
	}
	return code
}
