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
//     answered with nobody idle. At the bottom of the ladder it sleeps
//     until work is announced to it (kick), on a timer only while it
//     holds an operation whose completion nobody announces;
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
	// pollSleep caps the dedicated worker's timed sleep, taken only while
	// the ACTIVE set holds an operation whose completion nobody announces
	// (a user-tag receive, a send in flight, a collective round). It
	// bounds reaction time to those only while every computation worker
	// is busy: idle and waiting computation workers drive the same sweep
	// themselves, without sleeping.
	pollSleep = 20 * time.Microsecond
)

// The dedicated worker's wake word (Node.asleep).
const (
	awake = iota
	// asleepTimed: in the last sweep before a sleep, or in a timed sleep.
	// Every kick wakes it.
	asleepTimed
	// asleepQuiet: blocked on Node.wake with no timer, the worklist and
	// the ACTIVE set empty. User operations kick it too.
	asleepQuiet
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
// sleep until kicked (sleep). A sweep somebody else is driving is not this worker's
// progress: losing the try-lock moves it down the ladder like an empty
// sweep does, so that computation workers polling for their own
// completions are not fought for the lock and the processor by a
// goroutine that has nothing to add.
func (n *Node) commWorker() {
	defer close(n.stopped)
	timer := time.NewTimer(pollSleep)
	timer.Stop()
	idle := 0
	for {
		var progressed, done bool
		if idle < idleYieldSweeps {
			progressed, done = n.ownSweep()
		} else {
			progressed, done = n.sleep(timer, idle-idleYieldSweeps)
		}
		switch {
		case done:
			return
		case progressed:
			idle = 0
			continue
		}
		idle++
		if idle >= idleSpinSweeps && idle < idleYieldSweeps {
			// Hot spin below idleSpinSweeps: a fresh prescription or an
			// in-flight completion is most likely to land within the next
			// few sweeps. Past it, yield between sweeps.
			runtime.Gosched()
		}
	}
}

// ownSweep is one of the dedicated worker's sweeps, if the engine is
// free. done reports that the node is stopping with nothing left to
// finish: the listeners are halted and the worker must exit.
func (n *Node) ownSweep() (progressed, done bool) {
	if !n.sweepMu.TryLock() {
		n.stats.contended.Add(1)
		return false, false
	}
	progressed = n.progress()
	done = !progressed && n.halted()
	n.sweepMu.Unlock()
	return progressed, done
}

// halted reports whether the node is stopping with nothing left to
// finish, and if so halts the listeners (sweepMu held, after an empty
// sweep).
func (n *Node) halted() bool {
	if !n.stop.Load() || !n.drained() {
		return false
	}
	n.haltListeners()
	return true
}

// sleep is the bottom of the idle ladder. It announces the sleep on the
// wake word, then makes one last sweep: work published before the
// announcement is found by that sweep, work published after it sees the
// word and kicks. With nothing ACTIVE the worker then sleeps quiet —
// blocked on n.wake with no timer, once a re-check under sweepMu has
// found the worklist still empty (a user operation kicks only a quiet
// worker, so one pushed between the sweep and the word's change must be
// seen here). Otherwise it takes a timed sleep (nap). progressed reports
// a sweep that moved anything or a kick, either of which restarts the
// ladder.
func (n *Node) sleep(timer *time.Timer, rounds int) (progressed, done bool) {
	n.asleep.Store(asleepTimed)
	defer n.asleep.Store(awake)
	if !n.sweepMu.TryLock() {
		n.stats.contended.Add(1)
		return n.nap(timer, rounds, 0, false), false
	}
	if n.progress() {
		n.sweepMu.Unlock()
		return true, false
	}
	if n.halted() {
		n.sweepMu.Unlock()
		return false, true
	}
	if len(n.active) == 0 {
		n.asleep.Store(asleepQuiet)
		quiet := n.drained()
		n.sweepMu.Unlock()
		if quiet {
			<-n.wake
		}
		return true, false
	}
	nextEvent, scheduled := n.nextEventIn()
	n.sweepMu.Unlock()
	return n.nap(timer, rounds, nextEvent, scheduled), false
}

// drained reports whether the engine holds no unfinished operation
// (sweepMu held).
func (n *Node) drained() bool {
	return n.worklist.Empty() && len(n.active) == 0
}

// nap is the dedicated worker's timed sleep, cut short by a kick, which
// it reports. The sleep doubles from 1µs per idle round up to pollSleep
// (nominally: on Linux any sleep under a millisecond on an idle
// processor lasts a netpoll tick), and is clipped to nextEvent when
// scheduled — the time until the earliest deadline the worker's last
// sweep saw — so adaptivity never delays a timeout. t is the worker's
// one timer, stopped and drained between naps.
func (n *Node) nap(t *time.Timer, rounds int, nextEvent time.Duration, scheduled bool) (kicked bool) {
	d := pollSleep
	if rounds < 16 {
		d = min(time.Microsecond<<rounds, pollSleep)
	}
	if scheduled && nextEvent < d {
		if nextEvent <= 0 {
			return false
		}
		d = nextEvent
	}
	t.Reset(d)
	select {
	case <-n.wake:
		if !t.Stop() {
			select { // fired meanwhile: drop the stale tick
			case <-t.C:
			default:
			}
		}
		return true
	case <-t.C:
		return false
	}
}

// kick wakes the dedicated worker if it sleeps. Whoever publishes work
// that only the dedicated worker may be left to find calls it after
// publishing: a runtime prescription, a delivery on a reserved tag
// (mpi.Comm.NotifyReserved), Close. The wake slot holds one token, so a
// kick never blocks; a token left by a sleep that ended on its timer
// costs the next sleep one empty round.
func (n *Node) kick() {
	if n.asleep.Load() != awake {
		n.signal()
	}
}

// signal leaves a wake token for the dedicated worker unless one waits.
func (n *Node) signal() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
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
