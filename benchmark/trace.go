package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one timed call from the benchmark into a public function of
// the program. Spans of one op share Op; the tree is window → op →
// <layer>.<Call>. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans one traced window keeps; ops are sampled 1
// in N so a window stays under it.
const maxSpans = 60000

// tracer owns the span buffers of one traced window. A nil *tracer (the
// untraced pass) hands out nil buffers, whose methods do nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's pre-allocated span storage; it is never
// shared, so recording takes no lock. When it is full, spans are dropped.
type spanBuf struct {
	tr    *tracer
	no    int64
	rank  int
	spans []span
}

// buf registers a buffer of the given capacity for one goroutine.
func (tr *tracer) buf(rank, capacity int) *spanBuf {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b := &spanBuf{tr: tr, no: int64(len(tr.bufs)), rank: rank, spans: make([]span, 0, capacity)}
	tr.bufs = append(tr.bufs, b)
	return b
}

// Span ids: the window span is rootID, an op span's id is computed from
// its op number (so the other ranks taking part in the op can name it as
// parent without asking), and every other span gets its buffer's next id.
const (
	rootID = 1
	opBase = int64(1) << 62
)

func opID(op int64) int64 { return opBase | op }

// begin opens a span and returns its index in the buffer (-1 when not
// recording).
func (b *spanBuf) begin(parent, op int64, name string) int {
	if b == nil || len(b.spans) == cap(b.spans) {
		return -1
	}
	i := len(b.spans)
	b.spans = append(b.spans, span{ID: b.no<<32 | int64(i+2), Parent: parent, Op: op, Name: name,
		Rank: b.rank, Start: int64(time.Since(b.tr.epoch))})
	return i
}

// beginOp opens the span of a whole op under the window span.
func (b *spanBuf) beginOp(op int64) int {
	i := b.begin(rootID, op, "op")
	if i >= 0 {
		b.spans[i].ID = opID(op)
	}
	return i
}

// beginRoot opens the window span.
func (b *spanBuf) beginRoot() int {
	i := b.begin(0, 0, "window")
	if i >= 0 {
		b.spans[i].ID = rootID
	}
	return i
}

// call opens the span of one call into the program made on behalf of op.
func (b *spanBuf) call(op int64, name string) int { return b.begin(opID(op), op, name) }

// end closes the span begin returned.
func (b *spanBuf) end(i int) {
	if i >= 0 {
		b.spans[i].End = int64(time.Since(b.tr.epoch))
	}
}

// record stores a span whose ends were timed elsewhere (a DDDF push
// starts on the home rank and ends in the consumer's task); recordOp
// does the same for a whole op.
func (b *spanBuf) record(op int64, name string, start, end time.Time) {
	b.setTimes(b.call(op, name), start, end)
}

func (b *spanBuf) recordOp(op int64, start, end time.Time) {
	b.setTimes(b.beginOp(op), start, end)
}

func (b *spanBuf) setTimes(i int, start, end time.Time) {
	if i >= 0 {
		b.spans[i].Start, b.spans[i].End = int64(start.Sub(b.tr.epoch)), int64(end.Sub(b.tr.epoch))
	}
}

// sampled returns b for the ops that are traced (1 in every) and nil for
// the rest.
func (b *spanBuf) sampled(i, every int) *spanBuf {
	if b == nil || i%every != 0 {
		return nil
	}
	return b
}

// all returns every recorded span, ordered by start time.
func (tr *tracer) all() []span {
	var out []span
	for _, b := range tr.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// it that its children cover (overlapping children are counted once).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanStats pools the spans of one traced run by name.
type spanStats struct {
	durNS  map[string][]float64
	selfNS map[string]int64 // by layer (the name up to the first '.')
}

func newSpanStats() *spanStats {
	return &spanStats{durNS: map[string][]float64{}, selfNS: map[string]int64{}}
}

func (st *spanStats) add(spans []span) {
	self := selfTimes(spans)
	for _, s := range spans {
		st.durNS[s.Name] = append(st.durNS[s.Name], float64(s.End-s.Start))
		layer, _, _ := strings.Cut(s.Name, ".")
		st.selfNS[layer] += self[s.ID]
	}
}

// meanNS is the mean duration of the spans with any of the given names.
func (st *spanStats) meanNS(names ...string) float64 {
	var n, d float64
	for _, name := range names {
		for _, x := range st.durNS[name] {
			d += x
		}
		n += float64(len(st.durNS[name]))
	}
	return ratio(d, n)
}

// p50NS is the median duration of the spans with the given name.
func (st *spanStats) p50NS(name string) float64 { return median(st.durNS[name]) }

// writeSpans stores spans as benchmark/out/trace-<workload>.json.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
