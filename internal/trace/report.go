package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Post-run analysis: the text equivalent of eyeballing the Perfetto
// timeline. From the recorded events it computes, per rank, the
// quantities the paper's Table III discussion revolves around — worker
// utilization, steal success rate, communication/computation overlap —
// plus the dwell time of communication tasks in each lifecycle state.

// Report is the computed post-run summary.
type Report struct {
	Wall    time.Duration // span between first and last recorded event
	Events  int64
	Dropped int64
	Ranks   []RankReport
	Faults  FaultCounts
}

// FaultCounts aggregates fault-plane events (net track).
type FaultCounts struct {
	Drops, Dups, Spikes int64
}

// RankReport is one rank's summary.
type RankReport struct {
	Pid     int
	Workers []WorkerUtil

	StealAttempts, StealSuccesses, StealFails int64

	CommOps int
	// Overlap is |comm in-flight ∩ some compute worker busy| divided by
	// |comm in-flight|: the fraction of communication time hidden
	// behind computation. -1 when the rank recorded no comm ops.
	Overlap float64
	// Dwell is the mean time a comm task spent in each lifecycle state,
	// keyed by state name (ALLOCATED, PRESCRIBED, ACTIVE).
	Dwell map[string]time.Duration
}

// WorkerUtil is one computation worker's busy fraction.
type WorkerUtil struct {
	Name string
	Busy time.Duration
	Util float64 // Busy / Report.Wall
}

// StealRate returns successes/attempts, or -1 with no attempts.
func (r *RankReport) StealRate() float64 {
	if r.StealAttempts == 0 {
		return -1
	}
	return float64(r.StealSuccesses) / float64(r.StealAttempts)
}

// MeanUtil returns the mean worker utilization, or -1 with no workers.
func (r *RankReport) MeanUtil() float64 {
	if len(r.Workers) == 0 {
		return -1
	}
	var s float64
	for _, w := range r.Workers {
		s += w.Util
	}
	return s / float64(len(r.Workers))
}

// interval is a half-open [from, to) time span in trace nanoseconds.
type interval struct{ from, to int64 }

// mergeIntervals unions overlapping spans (input mutated/sorted).
func mergeIntervals(in []interval) []interval {
	if len(in) == 0 {
		return in
	}
	sort.Slice(in, func(i, j int) bool { return in[i].from < in[j].from })
	out := in[:1]
	for _, iv := range in[1:] {
		last := &out[len(out)-1]
		if iv.from <= last.to {
			if iv.to > last.to {
				last.to = iv.to
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersectTotal returns the summed length of the intersection of two
// merged interval sets.
func intersectTotal(a, b []interval) int64 {
	var total int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max64(a[i].from, b[j].from)
		hi := min64(a[i].to, b[j].to)
		if hi > lo {
			total += hi - lo
		}
		if a[i].to < b[j].to {
			i++
		} else {
			j++
		}
	}
	return total
}

func sumIntervals(in []interval) int64 {
	var total int64
	for _, iv := range in {
		total += iv.to - iv.from
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// busyIntervals extracts the depth>0 regions from slice begin/end
// events (task executions nest when a worker helps at a finish join).
func busyIntervals(evs []Event, begin, end EventKind) []interval {
	var out []interval
	depth := 0
	var open int64
	var last int64
	for _, e := range evs {
		if e.TS > last {
			last = e.TS
		}
		switch e.Kind {
		case begin:
			if depth == 0 {
				open = e.TS
			}
			depth++
		case end:
			if depth == 0 {
				continue // begin lost to overflow
			}
			depth--
			if depth == 0 {
				out = append(out, interval{open, e.TS})
			}
		}
	}
	if depth > 0 && last > open {
		out = append(out, interval{open, last}) // close at last activity
	}
	return mergeIntervals(out)
}

// BuildReport computes the post-run summary from the tracer's events.
func (t *Tracer) BuildReport() *Report {
	rep := &Report{}
	if t == nil {
		return rep
	}
	snap := t.Snapshot()

	var minTS, maxTS int64
	first := true
	forEachEvent(snap, func(e Event) {
		if first {
			minTS, maxTS, first = e.TS, e.TS, false
			return
		}
		if e.TS < minTS {
			minTS = e.TS
		}
		if e.TS > maxTS {
			maxTS = e.TS
		}
	})
	if first {
		return rep
	}
	rep.Wall = time.Duration(maxTS - minTS)
	wallNS := maxTS - minTS
	if wallNS <= 0 {
		wallNS = 1
	}

	byPid := map[int][]TrackEvents{}
	var pids []int
	for _, te := range snap {
		rep.Events += int64(len(te.Events))
		rep.Dropped += te.Dropped
		if te.Pid == NetPid {
			for _, e := range te.Events {
				switch e.Kind {
				case EvFaultDrop:
					rep.Faults.Drops++
				case EvFaultDup:
					rep.Faults.Dups++
				case EvFaultSpike:
					rep.Faults.Spikes++
				}
			}
			continue
		}
		if _, ok := byPid[te.Pid]; !ok {
			pids = append(pids, te.Pid)
		}
		byPid[te.Pid] = append(byPid[te.Pid], te)
	}
	sort.Ints(pids)

	for _, pid := range pids {
		rr := RankReport{Pid: pid, Overlap: -1, Dwell: map[string]time.Duration{}}
		var computeBusy []interval
		var inflight []interval
		type opState struct {
			state int64
			ts    int64
		}
		dwellSum := map[string]int64{}
		dwellN := map[string]int64{}
		lastState := map[int64]opState{}
		activeAt := map[int64]int64{}
		// Comm-task transitions sit on the comm track and, for sweeps a
		// computation worker drove, on that worker's track; an operation's
		// lifecycle is the time-ordered merge of both.
		var commStates []Event

		for _, te := range byPid[pid] {
			switch te.Kind {
			case TrackCompute:
				busy := busyIntervals(te.Events, EvTaskStart, EvTaskEnd)
				b := sumIntervals(busy)
				rr.Workers = append(rr.Workers, WorkerUtil{Name: te.Name,
					Busy: time.Duration(b), Util: float64(b) / float64(wallNS)})
				computeBusy = append(computeBusy, busy...)
				for _, e := range te.Events {
					switch e.Kind {
					case EvStealAttempt:
						rr.StealAttempts++
					case EvStealSuccess:
						rr.StealSuccesses++
					case EvStealFail:
						rr.StealFails++
					case EvCommState:
						commStates = append(commStates, e)
					}
				}
			case TrackComm:
				for _, e := range te.Events {
					if e.Kind == EvCommState {
						commStates = append(commStates, e)
					}
				}
			}
		}
		sort.SliceStable(commStates, func(i, j int) bool { return commStates[i].TS < commStates[j].TS })
		for _, e := range commStates {
			id, st := e.A, e.B
			if prev, ok := lastState[id]; ok && prev.state != CommAvailable {
				name := CommStateName(prev.state)
				dwellSum[name] += e.TS - prev.ts
				dwellN[name]++
			}
			lastState[id] = opState{st, e.TS}
			switch st {
			case CommActive:
				activeAt[id] = e.TS
			case CommCompleted:
				if from, ok := activeAt[id]; ok {
					inflight = append(inflight, interval{from, e.TS})
					delete(activeAt, id)
				}
				rr.CommOps++
			}
		}

		for name, sum := range dwellSum {
			rr.Dwell[name] = time.Duration(sum / dwellN[name])
		}
		if len(inflight) > 0 {
			inflight = mergeIntervals(inflight)
			computeBusy = mergeIntervals(computeBusy)
			total := sumIntervals(inflight)
			if total > 0 {
				rr.Overlap = float64(intersectTotal(inflight, computeBusy)) / float64(total)
			}
		}
		rep.Ranks = append(rep.Ranks, rr)
	}
	return rep
}

func forEachEvent(snap []TrackEvents, f func(Event)) {
	for _, te := range snap {
		for _, e := range te.Events {
			f(e)
		}
	}
}

// WriteReport renders the post-run report as text.
func (t *Tracer) WriteReport(w io.Writer) {
	t.BuildReport().Fprint(w)
}

// Fprint renders the report.
func (r *Report) Fprint(w io.Writer) {
	if r.Events == 0 {
		fmt.Fprintln(w, "trace: no events recorded")
		return
	}
	fmt.Fprintf(w, "trace report: wall %v, %d events (%d dropped)\n",
		r.Wall.Round(time.Microsecond), r.Events, r.Dropped)
	if f := r.Faults; f.Drops+f.Dups+f.Spikes > 0 {
		fmt.Fprintf(w, "  faults: drops=%d dups=%d spikes=%d\n", f.Drops, f.Dups, f.Spikes)
	}
	for i := range r.Ranks {
		rr := &r.Ranks[i]
		fmt.Fprintf(w, "rank %d:\n", rr.Pid)
		if len(rr.Workers) > 0 {
			fmt.Fprintf(w, "  utilization:")
			for _, wu := range rr.Workers {
				fmt.Fprintf(w, " %s=%.1f%%", wu.Name, 100*wu.Util)
			}
			fmt.Fprintf(w, " (mean %.1f%%)\n", 100*rr.MeanUtil())
		}
		if rr.StealAttempts > 0 {
			fmt.Fprintf(w, "  steals: %d attempts, %d hits (%.1f%%), %d misses\n",
				rr.StealAttempts, rr.StealSuccesses, 100*rr.StealRate(), rr.StealFails)
		}
		if rr.CommOps > 0 {
			fmt.Fprintf(w, "  comm: %d ops", rr.CommOps)
			if rr.Overlap >= 0 {
				fmt.Fprintf(w, ", comm/compute overlap %.1f%%", 100*rr.Overlap)
			}
			fmt.Fprintln(w)
			if len(rr.Dwell) > 0 {
				names := make([]string, 0, len(rr.Dwell))
				for n := range rr.Dwell {
					names = append(names, n)
				}
				sort.Strings(names)
				fmt.Fprintf(w, "  comm-task dwell:")
				for _, n := range names {
					fmt.Fprintf(w, " %s=%v", n, rr.Dwell[n].Round(time.Nanosecond))
				}
				fmt.Fprintln(w)
			}
		}
	}
}
