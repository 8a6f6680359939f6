package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Chrome trace-event JSON export (the format Perfetto and
// chrome://tracing load). Layout:
//
//   - one Chrome "process" per rank (pid = rank), named "rank N", plus
//     a synthetic process for the interconnect fault plane;
//   - one "thread" per track: each computation worker, the
//     communication worker, the MPI endpoint, and the phaser track;
//   - task executions and comm-worker activity become duration slices
//     (ph B/E); everything else becomes thread-scoped instants (ph i);
//   - each communication operation's in-flight window (ACTIVE →
//     COMPLETED) additionally becomes an async slice (ph b/e, cat
//     "commop", id = comm-op id), which Perfetto renders as per-op
//     lanes under the rank.
//
// Events are strictly timestamp-ordered within each (pid, tid) pair;
// ValidateChrome (and cmd/tracecheck) asserts that plus B/E balance.

// chromeEvent is one trace-event entry. Field order is the marshalling
// order, kept stable for golden tests.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   int64          `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChrome renders the tracer's snapshot as Chrome trace JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("trace: WriteChrome on a nil tracer")
	}
	var out []chromeEvent
	seenPid := map[int]bool{}
	for _, te := range t.Snapshot() {
		if !seenPid[te.Pid] {
			seenPid[te.Pid] = true
			out = append(out, chromeEvent{Name: "process_name", Ph: "M", Pid: te.Pid,
				Args: map[string]any{"name": pidName(te.Pid)}})
		}
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", Pid: te.Pid, Tid: te.Tid,
			Args: map[string]any{"name": te.Name}})
		out = append(out, convertTrack(te)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: out, DisplayTimeUnit: "ms"})
}

// WriteChromeFile writes the timeline to path.
func (t *Tracer) WriteChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func pidName(pid int) string {
	if pid == NetPid {
		return "interconnect"
	}
	return fmt.Sprintf("rank %d", pid)
}

// convertTrack maps one track's events. Slice begins/ends are depth
// balanced: an End with no open Begin (its Begin was dropped by ring
// overflow) is discarded, and Begins still open at the end of the
// track are closed at the last seen timestamp, so the output always
// parses as well-nested slices.
func convertTrack(te TrackEvents) []chromeEvent {
	var out []chromeEvent
	depth := 0
	var lastTS int64
	sliceName := func(e Event) (string, map[string]any) {
		switch e.Kind {
		case EvCommBusyStart:
			return "comm.op", map[string]any{"op": e.A, "kind": e.B}
		default:
			return "task", nil
		}
	}
	for _, e := range te.Events {
		if e.TS > lastTS {
			lastTS = e.TS
		}
		switch e.Kind {
		case EvTaskStart, EvCommBusyStart:
			name, args := sliceName(e)
			out = append(out, chromeEvent{Name: name, Ph: "B", Ts: usec(e.TS), Pid: te.Pid, Tid: te.Tid, Args: args})
			depth++
		case EvTaskEnd, EvCommBusyEnd:
			if depth == 0 {
				continue // begin lost to ring overflow
			}
			depth--
			out = append(out, chromeEvent{Name: sliceEndName(e.Kind), Ph: "E", Ts: usec(e.TS), Pid: te.Pid, Tid: te.Tid})
		case EvCommState:
			out = append(out, chromeEvent{Name: "comm." + CommStateName(e.B), Ph: "i", Ts: usec(e.TS),
				Pid: te.Pid, Tid: te.Tid, S: "t", Args: map[string]any{"op": e.A}})
			switch e.B {
			case CommActive:
				out = append(out, chromeEvent{Name: "op", Ph: "b", Ts: usec(e.TS), Pid: te.Pid, Tid: te.Tid,
					Cat: "commop", ID: e.A})
			case CommCompleted:
				out = append(out, chromeEvent{Name: "op", Ph: "e", Ts: usec(e.TS), Pid: te.Pid, Tid: te.Tid,
					Cat: "commop", ID: e.A})
			}
		default:
			args := instantArgs(e)
			if e.Kind == EvSendPost && te.Kind != TrackMPI { // an aggregated frame, not an endpoint post
				args = map[string]any{"peer": e.A, "records": e.B}
			}
			out = append(out, chromeEvent{Name: e.Kind.String(), Ph: "i", Ts: usec(e.TS),
				Pid: te.Pid, Tid: te.Tid, S: "t", Args: args})
		}
	}
	for depth > 0 {
		depth--
		out = append(out, chromeEvent{Name: "task", Ph: "E", Ts: usec(lastTS), Pid: te.Pid, Tid: te.Tid})
	}
	return out
}

func sliceEndName(k EventKind) string {
	if k == EvCommBusyEnd {
		return "comm.op"
	}
	return "task"
}

func instantArgs(e Event) map[string]any {
	switch e.Kind {
	case EvStealSuccess:
		return map[string]any{"victim": e.A}
	case EvSendPost, EvRecvPost, EvMatch:
		return map[string]any{"peer": e.A, "tag": e.B}
	case EvFaultDrop, EvFaultDup, EvFaultSpike:
		return map[string]any{"src": e.A, "dst": e.B}
	case EvPhaserSignal, EvPhaserWaitStart, EvPhaserWaitEnd, EvPhaserRelease:
		return map[string]any{"phase": e.A}
	case EvDistStealReq:
		return map[string]any{"victim": e.A}
	case EvDistStealServe, EvDistMigrate:
		return map[string]any{"peer": e.A, "frames": e.B}
	case EvDistDeny:
		return map[string]any{"peer": e.A, "load": e.B}
	case EvDistToken:
		return map[string]any{"peer": e.A}
	case EvDistDone:
		return map[string]any{"rank": e.A, "failed": e.B}
	}
	return nil
}

// ChromeSummary is what ValidateChrome learned about a timeline.
type ChromeSummary struct {
	Events   int // non-metadata events
	Tracks   int // distinct (pid, tid) pairs with events
	Slices   int // completed B/E pairs
	Instants int
}

// ValidateChrome parses Chrome trace JSON and checks the structural
// invariants the exporter guarantees: timestamps monotonic per
// (pid, tid) in array order, and B/E slices balanced per track. It is
// the shared checker behind the golden tests and cmd/tracecheck.
func ValidateChrome(data []byte) (*ChromeSummary, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace: no traceEvents")
	}
	type key struct{ pid, tid int }
	lastTS := map[key]float64{}
	depth := map[key]int{}
	sum := &ChromeSummary{}
	tracks := map[key]bool{}
	for i, e := range f.TraceEvents {
		if e.Ph == "M" {
			continue
		}
		k := key{e.Pid, e.Tid}
		if !tracks[k] {
			tracks[k] = true
		}
		sum.Events++
		if prev, ok := lastTS[k]; ok && e.Ts < prev {
			return nil, fmt.Errorf("trace: event %d (%s) on pid=%d tid=%d goes backwards: %.3f < %.3f",
				i, e.Name, e.Pid, e.Tid, e.Ts, prev)
		}
		lastTS[k] = e.Ts
		switch e.Ph {
		case "B":
			depth[k]++
		case "E":
			depth[k]--
			if depth[k] < 0 {
				return nil, fmt.Errorf("trace: event %d: E without B on pid=%d tid=%d", i, e.Pid, e.Tid)
			}
			sum.Slices++
		case "i", "I":
			sum.Instants++
		case "b", "e", "X", "C":
			// async slices / complete events / counters: no invariant here
		default:
			return nil, fmt.Errorf("trace: event %d: unknown phase %q", i, e.Ph)
		}
	}
	for k, d := range depth {
		if d != 0 {
			return nil, fmt.Errorf("trace: pid=%d tid=%d has %d unclosed slices", k.pid, k.tid, d)
		}
	}
	sum.Tracks = len(tracks)
	return sum, nil
}
