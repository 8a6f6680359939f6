// Package phaser implements Habanero-C phasers: a unified construct for
// collective and point-to-point synchronization among dynamically created
// tasks, with the two safety guarantees the paper highlights —
// deadlock-freedom and phase-ordering — plus phaser accumulators
// (reduction at the synchronization point).
//
// Tasks register in one of three modes (SignalWait, SignalOnly, WaitOnly)
// and synchronize with Next (or AccumNext with a reduction contribution).
// Registration and drop are dynamic, as in the paper.
//
// External hooks integrate a phase with inter-node synchronization: HCMPI
// wires OnFirstArrival to kick off MPI_Barrier early (the relaxed "fuzzy"
// barrier of §III-A) and ExternalRelease to complete the inter-node
// operation before any local task starts its next phase (the strict
// barrier, and MPI_Allreduce for accumulators).
//
// The semantic arrival set here is maintained under one lock; the
// hierarchical sub-phaser tree of the paper's implementation — whose point
// is contention, which a 1-CPU host cannot exhibit — is modelled where it
// matters for the reproduction, in the discrete-event simulator's
// synchronization cost model (internal/sim).
package phaser

import (
	"fmt"
	"sync"

	"hcmpi/internal/trace"
)

// Mode is a task's capability on a phaser.
type Mode int

const (
	// SignalWait both signals phase completion and waits for the release.
	SignalWait Mode = iota
	// SignalOnly signals but never waits; it may run ahead one phase.
	SignalOnly
	// WaitOnly waits for releases without contributing signals.
	WaitOnly
)

func (m Mode) String() string {
	switch m {
	case SignalWait:
		return "SIGNAL_WAIT_MODE"
	case SignalOnly:
		return "SIGNAL_ONLY_MODE"
	case WaitOnly:
		return "WAIT_ONLY_MODE"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Hooks couple a phaser to an external (inter-node) synchronization.
type Hooks struct {
	// OnFirstArrival fires when the first signal of a phase arrives; it
	// must not block (HCMPI uses it to enqueue the inter-node barrier
	// early, overlapping it with intra-node synchronization).
	OnFirstArrival func(phase int64)
	// ExternalRelease runs in the releasing (master) task after all local
	// signals have arrived and before any waiter is released. It receives
	// the locally reduced accumulator value (nil without an accumulator)
	// and returns the globally reduced value. It may block.
	ExternalRelease func(phase int64, local any) any
}

// Config parameterizes a phaser.
type Config struct {
	// Degree is the sub-phaser tree arity the paper's runtime would use;
	// it is carried for the simulator's cost model. 0 means flat.
	Degree int
	// Combine, when non-nil, turns the phaser into an accumulator:
	// AccumNext contributions are folded pairwise with it.
	Combine func(a, b any) any
	Hooks   Hooks
	// Trace, when non-nil, records signal/wait/release events on this
	// ring (HCMPI wires the node's phaser track here).
	Trace *trace.Ring
}

// Phaser coordinates a dynamic set of registered tasks.
type Phaser struct {
	mu   sync.Mutex
	cond *sync.Cond
	cfg  Config

	phase     int64
	regs      []*Reg
	releasing bool
	pending   []func() // register/drop arriving during an external release

	accLocal any
	arrived  int
	result   any
	phases   int64 // completed phases (stats)
}

// Reg is one task's registration.
type Reg struct {
	ph      *Phaser
	mode    Mode
	phase   int64 // next phase this registration signals/waits
	dropped bool
}

// New creates a phaser.
func New(cfg Config) *Phaser {
	p := &Phaser{cfg: cfg}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Phase returns the current phase number (completed phases).
func (p *Phaser) Phase() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.phase
}

// Result returns the globally reduced value of the most recently
// completed phase (accum_get in the paper).
func (p *Phaser) Result() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.result
}

// Register attaches a new task in the given mode, effective for the
// phase currently gathering.
func (p *Phaser) Register(m Mode) *Reg {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := &Reg{ph: p, mode: m}
	if p.releasing {
		// Joining during an external release: take effect next phase.
		r.phase = p.phase + 1
		p.pending = append(p.pending, func() { p.regs = append(p.regs, r) })
		return r
	}
	r.phase = p.phase
	p.regs = append(p.regs, r)
	return r
}

// Mode returns the registration's mode.
func (r *Reg) Mode() Mode { return r.mode }

// Drop deregisters the task. If it had not yet signalled the gathering
// phase, the drop counts as its signal, preserving deadlock-freedom.
func (r *Reg) Drop() {
	p := r.ph
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.dropped {
		return
	}
	if p.releasing {
		p.pending = append(p.pending, func() { p.removeLocked(r) })
		r.dropped = true
		return
	}
	p.removeLocked(r)
	r.dropped = true
	p.checkCompleteLocked()
}

func (p *Phaser) removeLocked(r *Reg) {
	for i, x := range p.regs {
		if x == r {
			p.regs = append(p.regs[:i], p.regs[i+1:]...)
			return
		}
	}
}

// Next signals the current phase (per the mode) and waits for its release
// (per the mode).
func (r *Reg) Next() { r.next(nil, false) }

// Signal performs only the signal half of Next (split-phase / fuzzy
// synchronization: signal, do local work, then Wait). Only meaningful for
// signal-capable registrations.
func (r *Reg) Signal() {
	p := r.ph
	p.mu.Lock()
	defer p.mu.Unlock()
	if r.dropped {
		panic("phaser: Signal on dropped registration")
	}
	if r.mode == WaitOnly {
		panic("phaser: Signal on WAIT_ONLY registration")
	}
	p.waitLocked(r.phase)
	myPhase := r.phase
	r.phase++
	p.arrived++
	p.cfg.Trace.Emit(trace.EvPhaserSignal, myPhase, int64(p.arrived))
	if p.arrived == 1 && p.cfg.Hooks.OnFirstArrival != nil {
		p.cfg.Hooks.OnFirstArrival(myPhase)
	}
	p.checkCompleteLocked()
}

// Wait blocks until the phase this registration last signalled has been
// released; pair with Signal for split-phase synchronization. Calling it
// without a preceding Signal waits for the current phase boundary.
func (r *Reg) Wait() {
	p := r.ph
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waitLocked(r.phase) // after Signal, phase k's release means p.phase > k-1
}

// AccumNext contributes v to the phase's reduction and synchronizes like
// Next.
func (r *Reg) AccumNext(v any) { r.next(v, true) }

// Get returns the reduced value of the last completed phase; call it
// after Next/AccumNext returns.
func (r *Reg) Get() any { return r.ph.Result() }

func (r *Reg) next(v any, hasVal bool) {
	p := r.ph
	p.mu.Lock()
	if r.dropped {
		p.mu.Unlock()
		panic("phaser: Next on dropped registration")
	}

	if r.mode == WaitOnly {
		p.waitLocked(r.phase + 1)
		r.phase++
		p.mu.Unlock()
		return
	}

	// Signal path. A SignalOnly task may be a full phase ahead; hold it
	// until the phaser catches up.
	p.waitLocked(r.phase)
	myPhase := r.phase
	r.phase++
	p.arrived++
	p.cfg.Trace.Emit(trace.EvPhaserSignal, myPhase, int64(p.arrived))
	if hasVal && p.cfg.Combine != nil {
		if p.accLocal == nil {
			p.accLocal = v
		} else {
			p.accLocal = p.cfg.Combine(p.accLocal, v)
		}
	}
	if p.arrived == 1 && p.cfg.Hooks.OnFirstArrival != nil {
		p.cfg.Hooks.OnFirstArrival(myPhase)
	}
	released := p.checkCompleteLocked()

	if r.mode == SignalWait && !released {
		p.waitLocked(myPhase + 1)
	}
	p.mu.Unlock()
}

// waitLocked blocks (p.mu held) until p.phase has reached target. Every
// caller's target derives from its registration's own phase, which only
// that registration's task writes, under p.mu.
func (p *Phaser) waitLocked(target int64) {
	if p.phase >= target {
		return
	}
	p.cfg.Trace.Emit(trace.EvPhaserWaitStart, p.phase, 0)
	for p.phase < target {
		p.cond.Wait()
	}
	p.cfg.Trace.Emit(trace.EvPhaserWaitEnd, p.phase, 0)
}

// checkCompleteLocked releases the phase if every signal-capable
// registration has signalled. The caller that completes the set becomes
// the master: it runs the external release (without the lock) and then
// advances the phase. It reports whether the current caller performed the
// release (so a SignalWait master does not re-wait on itself).
func (p *Phaser) checkCompleteLocked() bool {
	if p.releasing {
		return false
	}
	live := 0
	for _, r := range p.regs {
		if r.mode == WaitOnly {
			continue
		}
		live++
		if r.phase <= p.phase {
			return false // someone has not signalled yet
		}
	}
	// A phase with no live signalers releases only if it actually
	// gathered signals (e.g. the last signaler signalled then dropped);
	// otherwise dropping every registration must not spin the phase
	// counter forward.
	if live == 0 && p.arrived == 0 {
		return false
	}
	// All signals in: this caller is the master.
	phase := p.phase
	local := p.accLocal
	result := local
	if p.cfg.Hooks.ExternalRelease != nil {
		p.releasing = true
		p.mu.Unlock()
		result = p.cfg.Hooks.ExternalRelease(phase, local)
		p.mu.Lock()
		p.releasing = false
	}
	p.result = result
	p.accLocal = nil
	p.arrived = 0
	p.phase++
	p.phases++
	p.cfg.Trace.Emit(trace.EvPhaserRelease, phase, 0)
	for _, f := range p.pending {
		f()
	}
	p.pending = nil
	p.cond.Broadcast()
	return true
}

// Registered returns the number of live registrations (diagnostic).
func (p *Phaser) Registered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.regs)
}
