package hcmpi

import (
	"runtime"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
	"hcmpi/internal/trace"
)

// The progress engine (DESIGN.md §16). One sweep — progress — drains the
// worklist and issues MPI operations, services the listeners, polls
// active requests, advances collective schedules and publishes
// completions by putting HCMPI_Status objects into request DDFs. Sweeps
// are serialized by the sweepMu try-lock, so MPI stays single-threaded
// per rank and the sweep's state keeps its single-owner discipline, but
// the owner changes from sweep to sweep:
//
//   - the dedicated worker (commWorker) sweeps in a loop with an adaptive
//     idle ladder. It guarantees progress while every computation worker
//     computes — UTS steal requests, DDDF registrations and timeouts are
//     answered with nobody idle;
//   - an idle computation worker sweeps from hc's idle hook before it
//     backs off (idleSweep), and a task blocked in Wait sweeps for a
//     small budget before it registers on its request (await). The
//     operation a task waits for is then issued, polled and completed on
//     the task's own goroutine, with no hand-off.
//
// Nobody waits for the lock: a goroutine that loses the try-lock counts
// a contended attempt and goes back to what it was doing.

const (
	// waitHelpRounds is how many sweeps a blocking call drives before it
	// registers on the request and lets its worker run other tasks or
	// park: about 2.5 µs on the reference box when there are deadlines
	// to check, which costs a clock read per sweep, and about 1 µs
	// otherwise. A same-host reply arrives within a few sweeps; past
	// that the wait is long enough for a park to be cheaper than the
	// spinning, and to leave the processor to whoever will produce the
	// completion (the TCP mesh's reader goroutines).
	//
	// waitHelpTries bounds the attempts it makes to get those sweeps. A
	// lost try-lock means someone else is sweeping, quite possibly
	// completing this very operation, so it is worth another look but
	// not a sweep.
	waitHelpRounds = 16
	waitHelpTries  = 8 * waitHelpRounds
	// listenBatch bounds how many messages one sweep hands to one
	// listener, so a burst on one tag costs one pass over the active set
	// per batch, not per message, without starving the other phases.
	listenBatch = 16
	// Dedicated-worker idle ladder: empty sweeps spent spinning, then
	// yielding, before it sleeps.
	idleSpinSweeps  = 32
	idleYieldSweeps = 64
	// pollSleep caps the dedicated worker's idle sleep. It bounds
	// reaction time only while every computation worker is busy: idle
	// and waiting computation workers drive the same sweep themselves,
	// without sleeping.
	pollSleep = 20 * time.Microsecond
)

// sweepClock reads the wall clock at most once per sweep, and only if
// the sweep needs it (a deadline to stamp or to check).
type sweepClock struct{ t time.Time }

func (c *sweepClock) now() time.Time {
	if c.t.IsZero() {
		c.t = time.Now()
	}
	return c.t
}

// progress is one sweep of the communication engine; it reports whether
// anything moved. The caller holds sweepMu and has set driver and ring.
// If a sweep parks, MPI progress stops for the whole rank — and the
// caller may be a computation worker — so the annotation below keeps the
// entire dispatch and completion path honest, collective schedules'
// Start and Progress included.
//
//hclint:nonblocking
func (n *Node) progress() bool {
	progressed := false
	var clk sweepClock

	// 1. Dispatch newly prescribed communication tasks.
	for {
		t, ok := n.worklist.Pop()
		if !ok {
			break
		}
		n.stats.dispatched.Add(1)
		n.ring.Emit(trace.EvCommBusyStart, t.id, int64(t.kind))
		id := t.id // dispatch may complete and recycle t
		n.dispatch(t, &clk)
		n.ring.Emit(trace.EvCommBusyEnd, id, 0)
		progressed = true
	}

	// 2. Poll listeners, draining a bounded batch from each. They come
	// before the ACTIVE set so that a collective completes only once the
	// listener messages that reached this rank ahead of its last round
	// have been handed over: a DDDF frame or steal request sent before a
	// barrier has been handled when the barrier returns (a listenBatch
	// per listener and sweep).
	n.stats.polls.Add(1)
	for _, l := range n.listeners {
		for i := 0; i < listenBatch && !l.halt; i++ {
			st, ok := l.req.TestStatus()
			if !ok {
				break
			}
			old := l.req
			// Repost before invoking so back-to-back messages queue.
			l.req = n.comm.IrecvReserved(mpi.AnySource, l.tag)
			l.fn(st.Source, old.Payload())
			// The callback only borrowed the payload: it goes back to the
			// transport's pool with the handle.
			old.FreeWithPayload()
			progressed = true
		}
	}

	// 3. Poll ACTIVE operations (MPI_Test) and advance collective
	// schedules. Errored completions surface through the request DDF;
	// deadline overruns are failed with ErrTimeout so no awaiter blocks
	// forever.
	live := n.active[:0]
	for _, t := range n.active {
		if t.kind == kindCollective {
			if n.advance(t) {
				progressed = true
				continue
			}
		} else if st, ok := t.req.TestStatus(); ok {
			n.settle(t, &st)
			progressed = true
			continue
		}
		if !t.deadline.IsZero() && clk.now().After(t.deadline) {
			n.timeoutTask(t)
			progressed = true
			continue
		}
		live = append(live, t)
	}
	n.active = live

	return progressed
}

// trySweep drives one sweep on computation worker ctx's goroutine if the
// engine is free: swept reports whether it was, progressed whether the
// sweep moved anything. Tasks the sweep releases land on ctx's own
// deque, and its trace events on ctx's timeline.
//
// Lock order: sweepMu, then (through ReleaseTask → Wake) hc's idleMu.
// The reverse never happens — hc does not call the idle hook with idleMu
// held, and a try-lock cannot wait in any case.
func (n *Node) trySweep(ctx *hc.Ctx) (swept, progressed bool) {
	if !n.sweepMu.TryLock() {
		n.stats.contended.Add(1)
		return false, false
	}
	n.driver = ctx
	if ring := ctx.TraceRing(); ring != nil { // a stand-in has no timeline of its own
		n.ring = ring
	}
	progressed = n.progress()
	n.driver, n.ring = nil, n.commRing
	n.sweepMu.Unlock()
	n.stats.stolen.Add(1)
	return true, progressed
}

// idleSweep is hc's idle hook: an idle computation worker drives a sweep
// before it backs off, and rescans for work if the sweep moved anything.
func (n *Node) idleSweep(ctx *hc.Ctx) bool {
	_, progressed := n.trySweep(ctx)
	return progressed
}

// commWorker is the dedicated communication worker: the paper's Fig. 11
// worker, reduced to the guarantor of progress. It sweeps whenever the
// engine is free and otherwise walks an idle ladder — spin, yield, then
// sleeps doubling up to n.sleepCap (pollSleep). A sweep somebody else
// is driving is not this worker's progress: losing the try-lock moves it
// down the ladder like an empty sweep does, so that computation workers
// polling for their own completions are not fought for the lock and the
// processor by a goroutine that has nothing to add.
func (n *Node) commWorker() {
	defer close(n.stopped)
	idle := 0
	for {
		var nextEvent time.Duration
		var scheduled bool
		if n.sweepMu.TryLock() {
			progressed := n.progress()
			if !progressed {
				if n.stop.Load() && n.drained() {
					n.haltListeners()
					n.sweepMu.Unlock()
					return
				}
				if idle+1 >= idleYieldSweeps { // about to sleep
					nextEvent, scheduled = n.nextEventIn()
				}
			}
			n.sweepMu.Unlock()
			if progressed {
				idle = 0
				continue
			}
		} else {
			n.stats.contended.Add(1)
		}
		idle++
		switch {
		case idle < idleSpinSweeps:
			// Hot spin: a fresh prescription or an in-flight completion is
			// most likely to land within the next few sweeps.
		case idle < idleYieldSweeps:
			runtime.Gosched()
		default:
			n.idleSleep(idle-idleYieldSweeps, nextEvent, scheduled)
		}
	}
}

// drained reports whether the engine holds no unfinished operation
// (sweepMu held).
func (n *Node) drained() bool {
	return n.worklist.Empty() && len(n.active) == 0
}

// idleSleep parks the idle dedicated worker. The sleep doubles from 1µs
// per idle round up to n.sleepCap (so a briefly quiet worker reacts in
// microseconds while a long-idle one settles at the cap),
// and is additionally clipped to nextEvent when scheduled — the time
// until the earliest deadline the worker's last sweep saw — so
// adaptivity never delays a timeout.
func (n *Node) idleSleep(rounds int, nextEvent time.Duration, scheduled bool) {
	if rounds > 16 {
		rounds = 16
	}
	d := time.Microsecond << rounds
	if d > n.sleepCap || d <= 0 {
		d = n.sleepCap
	}
	if scheduled && nextEvent < d {
		if nextEvent <= 0 {
			return
		}
		d = nextEvent
	}
	time.Sleep(d)
}

// nextEventIn returns how long until the earliest active-operation
// deadline a sweep must act on (sweepMu held). ok is false when no
// operation has one.
func (n *Node) nextEventIn() (time.Duration, bool) {
	var earliest time.Time
	for _, t := range n.active {
		if !t.deadline.IsZero() && (earliest.IsZero() || t.deadline.Before(earliest)) {
			earliest = t.deadline
		}
	}
	if earliest.IsZero() {
		return 0, false
	}
	return time.Until(earliest), true
}
