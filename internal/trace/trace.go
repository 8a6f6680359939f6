// Package trace is the runtime's observability substrate: per-worker
// lock-free event rings, a unified metrics registry, and exporters — a
// Chrome trace-event JSON timeline (loadable in Perfetto) and a
// post-run text report.
//
// The paper's evaluation leans on HPCToolkit timelines of computation
// vs. communication workers (§IV); this package is the reproduction's
// equivalent. Every instrumented layer (hc, hcmpi, mpi, netsim,
// phaser) holds a *Ring that is nil when tracing is disabled, so the
// disabled hot path pays exactly one nil check and no allocation. A
// ring is fixed-size and drop-oldest: emitting never blocks, never
// allocates, and overflow discards the oldest events rather than
// stalling a worker.
//
// Ring slots are written through atomics with a per-slot sequence
// number (a single-producer ring hardened for the few multi-writer
// tracks, e.g. the MPI endpoint track written by application and
// delivery goroutines). A writer claims its slot with a CAS on the
// sequence number before it stores anything; a writer that finds the
// slot claimed or already committed by a newer one gives its event up,
// so two writers a lap apart never mix their fields. This is the
// standard tracing trade: bounded memory and a wait-free hot path, at
// the cost of possibly losing events under extreme pressure.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind is the typed event taxonomy (DESIGN.md §9).
type EventKind uint8

const (
	// EvNone marks an empty slot; never emitted.
	EvNone EventKind = iota

	// Task lifecycle (compute-worker tracks).
	EvTaskSpawn // instant: a task was pushed onto this worker's deque
	EvTaskStart // slice begin: a task began executing on this worker
	EvTaskEnd   // slice end

	// Work stealing (compute-worker tracks). A = victim worker id or -1.
	EvStealAttempt
	EvStealSuccess
	EvStealFail

	// Communication-task lifecycle (comm-worker track). A = comm-op id,
	// B = new state (Comm* constants, mirroring hcmpi's Fig. 11 states).
	EvCommState
	// Comm-worker busy slices: dispatching an operation or publishing a
	// completion. A = comm-op id, B = operation kind (begin only).
	EvCommBusyStart
	EvCommBusyEnd

	// MPI endpoint events (per-rank mpi track). A = peer, B = tag. On a
	// comm-worker track EvSendPost marks an aggregated frame (hcmpi.Outbox)
	// leaving instead: A = peer, B = records in the frame.
	EvSendPost // Isend issued
	EvRecvPost // Irecv posted
	EvMatch    // receive matched a message (posted or unexpected path)

	// Fault-plane events (net track). A = src rank, B = dst rank.
	EvFaultDrop
	EvFaultDup
	EvFaultSpike

	// Phaser events (per-rank phaser track). A = phase.
	EvPhaserSignal
	EvPhaserWaitStart
	EvPhaserWaitEnd
	EvPhaserRelease

	// Distributed-scheduler steal lifecycle (per-rank distsched track).
	EvDistStealReq   // steal request issued; A = victim rank
	EvDistStealServe // steal request served with work; A = thief rank, B = frames granted
	EvDistMigrate    // migrated frames arrived; A = victim rank, B = frames received
	EvDistDeny       // steal denied; A = peer rank, B = victim's reported load
	EvDistToken      // termination token forwarded/received; A = peer rank
	EvDistDone       // global termination or job abort; A = failed rank (if B=1), B = 1 on failure
)

// String returns the exporter-facing event name.
func (k EventKind) String() string {
	switch k {
	case EvTaskSpawn:
		return "task.spawn"
	case EvTaskStart, EvTaskEnd:
		return "task"
	case EvStealAttempt:
		return "steal.attempt"
	case EvStealSuccess:
		return "steal.success"
	case EvStealFail:
		return "steal.fail"
	case EvCommState:
		return "comm.state"
	case EvCommBusyStart, EvCommBusyEnd:
		return "comm.op"
	case EvSendPost:
		return "send.post"
	case EvRecvPost:
		return "recv.post"
	case EvMatch:
		return "match"
	case EvFaultDrop:
		return "fault.drop"
	case EvFaultDup:
		return "fault.dup"
	case EvFaultSpike:
		return "fault.spike"
	case EvPhaserSignal:
		return "phaser.signal"
	case EvPhaserWaitStart:
		return "phaser.wait.begin"
	case EvPhaserWaitEnd:
		return "phaser.wait.end"
	case EvPhaserRelease:
		return "phaser.release"
	case EvDistStealReq:
		return "dist.steal.req"
	case EvDistStealServe:
		return "dist.steal.serve"
	case EvDistMigrate:
		return "dist.migrate"
	case EvDistDeny:
		return "dist.deny"
	case EvDistToken:
		return "dist.token"
	case EvDistDone:
		return "dist.done"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Comm-task lifecycle states carried in EvCommState.B. The values
// mirror hcmpi's CommState iota order (AVAILABLE..COMPLETED); hcmpi
// asserts the correspondence in its tests.
const (
	CommAvailable  int64 = 0
	CommAllocated  int64 = 1
	CommPrescribed int64 = 2
	CommActive     int64 = 3
	CommCompleted  int64 = 4
)

// CommStateName names an EvCommState.B value.
func CommStateName(s int64) string {
	switch s {
	case CommAvailable:
		return "AVAILABLE"
	case CommAllocated:
		return "ALLOCATED"
	case CommPrescribed:
		return "PRESCRIBED"
	case CommActive:
		return "ACTIVE"
	case CommCompleted:
		return "COMPLETED"
	}
	return fmt.Sprintf("state(%d)", s)
}

// Well-known thread ids within a rank's track group. Computation
// workers use tids [0, workers); the communication worker, phaser and
// MPI-endpoint tracks sit above them.
const (
	// MPITid is the per-rank MPI endpoint track.
	MPITid = 1 << 10
	// NetPid is the process id grouping interconnect fault events.
	NetPid = 1 << 20
)

// Event is one recorded event, as returned by snapshots.
type Event struct {
	TS   int64 // nanoseconds since the tracer started
	Kind EventKind
	A, B int64 // kind-specific payload
}

// TrackKind classifies a track for the exporters.
type TrackKind uint8

const (
	// TrackCompute is a computation worker's timeline.
	TrackCompute TrackKind = iota
	// TrackComm is a communication worker's timeline.
	TrackComm
	// TrackMPI is a rank's MPI endpoint (post/match instants).
	TrackMPI
	// TrackNet is the interconnect fault plane.
	TrackNet
	// TrackPhaser is a rank's phaser activity.
	TrackPhaser
	// TrackDist is a rank's distributed-scheduler steal lifecycle.
	TrackDist
)

// Track identifies one timeline: a (pid, tid) pair in Chrome trace
// terms, where pid groups tracks of one rank.
type Track struct {
	Pid, Tid int
	Name     string
	Kind     TrackKind
}

// TrackEvents is one track's snapshot.
type TrackEvents struct {
	Track
	Events  []Event
	Dropped int64 // events overwritten by ring overflow
}

// Config parameterizes a Tracer.
type Config struct {
	// RingSize is the per-track event capacity, rounded up to a power
	// of two. Default 1<<14 (16384 events, ~0.8 MB per track).
	RingSize int

	// now overrides the clock (tests); it returns nanoseconds since
	// tracer start and must be monotonic.
	now func() int64
}

// Tracer owns the track registry. A nil *Tracer is a valid disabled
// tracer: Register returns a nil *Ring, whose Emit is a no-op.
type Tracer struct {
	cfg   Config
	start time.Time

	mu     sync.Mutex
	tracks []*trackState
}

type trackState struct {
	Track
	ring *Ring
}

// New creates a tracer.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1 << 14
	}
	size := 1
	for size < cfg.RingSize {
		size <<= 1
	}
	cfg.RingSize = size
	return &Tracer{cfg: cfg, start: time.Now()}
}

func (t *Tracer) now() int64 {
	if t.cfg.now != nil {
		return t.cfg.now()
	}
	return int64(time.Since(t.start))
}

// Register creates a track and returns its ring. Safe on a nil tracer
// (returns nil, and nil rings swallow emits), so instrumented layers
// wire unconditionally. Registering the same (pid, tid) twice returns
// the existing ring.
func (t *Tracer) Register(pid, tid int, name string, kind TrackKind) *Ring {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ts := range t.tracks {
		if ts.Pid == pid && ts.Tid == tid {
			return ts.ring
		}
	}
	r := &Ring{tr: t, mask: uint64(t.cfg.RingSize - 1), slots: make([]slot, t.cfg.RingSize)}
	t.tracks = append(t.tracks, &trackState{Track: Track{Pid: pid, Tid: tid, Name: name, Kind: kind}, ring: r})
	return r
}

// Snapshot returns every track's surviving events, sorted by timestamp
// within each track and by (pid, tid) across tracks. It is safe to call
// while emitters are live, but the canonical use is post-run.
func (t *Tracer) Snapshot() []TrackEvents {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	tracks := make([]*trackState, len(t.tracks))
	copy(tracks, t.tracks)
	t.mu.Unlock()
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].Pid != tracks[j].Pid {
			return tracks[i].Pid < tracks[j].Pid
		}
		return tracks[i].Tid < tracks[j].Tid
	})
	out := make([]TrackEvents, 0, len(tracks))
	for _, ts := range tracks {
		out = append(out, TrackEvents{Track: ts.Track, Events: ts.ring.Snapshot(), Dropped: ts.ring.Dropped()})
	}
	return out
}

// slot is one ring cell. All fields are atomics so concurrent writers
// (and a concurrent Snapshot) are data-race free; seq holds ticket+1
// once the event is fully committed, and claimed while a writer owns
// the slot.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	kind atomic.Int32
	a, b atomic.Int64
}

// Ring is one track's fixed-size drop-oldest event buffer. Emit is
// wait-free and allocation-free. A nil *Ring swallows every emit —
// that nil check IS the disabled-tracing fast path.
type Ring struct {
	tr    *Tracer
	mask  uint64
	slots []slot
	pos   atomic.Uint64
	// lost counts events given up by a writer whose slot an older
	// writer still held (Emit).
	lost atomic.Int64
}

// claimed marks a slot a writer owns. It exceeds every ticket, so no
// commit (ticket+1) can equal it, and a writer comparing it with its
// own ticket sees a slot it must not touch.
const claimed = ^uint64(0)

// Emit records one event. Nil-safe; never blocks; never allocates.
//
// The slot is claimed with a CAS from the sequence number the writer
// loaded. A writer that finds it claimed, or committed by a newer
// ticket, or loses the CAS, drops its event: storing its fields after a
// newer writer's commit would tear that event.
//
//hclint:hotpath
func (r *Ring) Emit(kind EventKind, a, b int64) {
	if r == nil {
		return
	}
	ts := r.tr.now()
	i := r.pos.Add(1) - 1
	s := &r.slots[i&r.mask]
	if old := s.seq.Load(); old > i || !s.seq.CompareAndSwap(old, claimed) {
		// A ticket a full lap behind pos is already counted as overflow.
		if r.pos.Load() <= i+uint64(len(r.slots)) {
			r.lost.Add(1)
		}
		return
	}
	s.ts.Store(ts)
	s.kind.Store(int32(kind))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(i + 1)
}

// Dropped returns how many events the ring does not hold: those
// overwritten by overflow plus those lapped writers gave up. A given-up
// event still inside the window when it was dropped is counted again
// once overflow passes its ticket, so under lapping this is an upper
// bound.
func (r *Ring) Dropped() int64 {
	if r == nil {
		return 0
	}
	lost := r.lost.Load()
	pos := r.pos.Load()
	if n := uint64(len(r.slots)); pos > n {
		return int64(pos-n) + lost
	}
	return lost
}

// Len returns the number of events currently held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	pos := r.pos.Load()
	if n := uint64(len(r.slots)); pos > n {
		return int(n)
	}
	return int(pos)
}

// Snapshot copies out the surviving events, oldest first, sorted by
// timestamp (multi-writer tracks can commit slightly out of ticket
// order). Slots claimed mid-write, or rewritten between the two reads,
// fail their sequence check and are skipped.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	end := r.pos.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if end > n {
		start = end - n
	}
	evs := make([]Event, 0, end-start)
	for ticket := start; ticket < end; ticket++ {
		s := &r.slots[ticket&r.mask]
		if s.seq.Load() != ticket+1 {
			continue
		}
		e := Event{TS: s.ts.Load(), Kind: EventKind(s.kind.Load()), A: s.a.Load(), B: s.b.Load()}
		if s.seq.Load() != ticket+1 { // re-validate: discard if overwritten meanwhile
			continue
		}
		evs = append(evs, e)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs
}
