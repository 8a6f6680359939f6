package hc

import (
	"errors"
	"sync"
	"sync/atomic"
)

// DDF is a data-driven future: a single-assignment container that
// data-driven tasks (DDTs) synchronize through. A DDF starts empty, is
// written exactly once by Put, and thereafter delivers the same value to
// every Get. Tasks become runnable when every DDF in their await clause
// (or any, for an OR list) has been put.
//
// Per the paper's semantics, Get is non-blocking: reading an empty DDF is
// a program error, because the await clause — not Get — is the
// synchronization mechanism.
type DDF struct {
	mu      sync.Mutex
	full    atomic.Bool
	val     any
	waiters []*ddtReg
	fullCh  chan struct{} // lazily created for blocking Await
}

// ErrDDFEmpty is returned by Get on an unput DDF.
var ErrDDFEmpty = errors.New("hc: DDF_GET on empty DDF (await it first)")

// ErrDDFAlreadyPut is returned by TryPut on a second assignment.
var ErrDDFAlreadyPut = errors.New("hc: second DDF_PUT violates single assignment")

// NewDDF creates an empty DDF.
func NewDDF() *DDF { return &DDF{} }

// registrationBias keeps an AND-list counter strictly positive while the
// registering task is still walking its await list, so a concurrent Put
// cannot release the task early (or twice).
const registrationBias = int64(1) << 40

// Releaser is anything that can schedule a task freed by a DDF put: a
// worker context pushes to its own deque; HCMPI's communication worker
// pushes to its steal-visible deque (paper §III); nil falls back to the
// runtime inject queue.
type Releaser interface {
	ReleaseTask(t Task)
}

// ReleaseTask implements Releaser for worker contexts. The released
// task is copied into a pooled frame from the releasing worker.
func (c *Ctx) ReleaseTask(t Task) {
	nt := c.w.newTask(t.fn, t.finish)
	if c.w.detached() {
		c.w.rt.submitFrame(nt)
		return
	}
	c.w.deque.Push(nt)
	c.w.rt.Wake()
}

// ddtReg is one data-driven task's registration across its await list.
//
// AND list: pending counts unsatisfied DDFs; the put that drops it to
// zero schedules the task.
//
// OR list: pending is a one-shot release token (paper Fig. 12): it starts
// at 1 and whichever put CASes it to 0 schedules the task — exactly once,
// even under concurrent puts to different DDFs on the list.
//
// A blocked registration (Ctx.Block) has no task to schedule: the
// releasing put resumes the task that is blocked on worker task.ctx.w.
type ddtReg struct {
	or      bool
	blocked bool
	pending atomic.Int64
	task    Task
	rt      *Runtime
}

// register enters r into the await list ddfs (r.or selects the OR
// model). It reports whether the list was satisfied during registration
// with the release left to the caller; otherwise a put releases r, now or
// later, exactly once.
func (r *ddtReg) register(ddfs []*DDF) bool {
	if r.or {
		r.pending.Store(1)
		for _, d := range ddfs {
			d.mu.Lock()
			if d.full.Load() {
				d.mu.Unlock()
				return r.pending.CompareAndSwap(1, 0)
			}
			d.waiters = append(d.waiters, r)
			d.mu.Unlock()
		}
		return false
	}
	r.pending.Store(registrationBias + int64(len(ddfs)))
	for _, d := range ddfs {
		d.mu.Lock()
		if d.full.Load() {
			d.mu.Unlock()
			r.pending.Add(-1) // bias keeps the count positive
			continue
		}
		d.waiters = append(d.waiters, r)
		d.mu.Unlock()
	}
	// Drop the bias; exactly one Add observes zero, so the release happens
	// exactly once whether the last dependency was satisfied before,
	// during, or after registration.
	return r.pending.Add(-registrationBias) == 0
}

// released reports whether r's await list has been satisfied.
func (r *ddtReg) released() bool { return r.pending.Load() == 0 }

// fire schedules the released task: onto the releasing worker's deque
// when the release happens inside the pool (the paper pushes freed tasks
// "into the current worker's deque"), or via the inject queue otherwise.
// A blocked registration resumes its task instead (see worker.block: the
// task waits on its worker's unblock channel once it has handed its work
// to a stand-in, and helps like an idle worker until then).
func (r *ddtReg) fire(here Releaser) {
	if r.blocked {
		select {
		case r.task.ctx.w.unblock <- struct{}{}:
		default: // a token is already waiting; the task re-checks released
		}
		r.rt.Wake()
		return
	}
	if here != nil {
		here.ReleaseTask(r.task)
		return
	}
	r.rt.Submit(r.task)
}

// notify records that one awaited DDF has been put.
func (r *ddtReg) notify(here Releaser) {
	if r.or {
		if r.pending.CompareAndSwap(1, 0) {
			r.fire(here)
		}
		return
	}
	if r.pending.Add(-1) == 0 {
		r.fire(here)
	}
}

// TryPut writes the DDF's value, releasing every waiting DDT. It returns
// ErrDDFAlreadyPut on a second assignment. ctx may be nil when putting
// from outside the task pool.
func (d *DDF) TryPut(ctx *Ctx, v any) error {
	if ctx == nil {
		return d.PutVia(nil, v)
	}
	return d.PutVia(ctx, v)
}

// PutVia is TryPut with an explicit release target; HCMPI's communication
// worker uses it so that tasks it frees land on its own steal-visible
// deque.
func (d *DDF) PutVia(rel Releaser, v any) error {
	d.mu.Lock()
	if d.full.Load() {
		d.mu.Unlock()
		return ErrDDFAlreadyPut
	}
	d.val = v
	d.full.Store(true)
	ws := d.waiters
	d.waiters = nil
	if d.fullCh != nil {
		close(d.fullCh)
	}
	d.mu.Unlock()
	for _, r := range ws {
		r.notify(rel)
	}
	return nil
}

// Await blocks the calling goroutine until the DDF is put and returns the
// value. This is a runtime-internal convenience (used by phaser masters
// waiting on inter-node operations); application tasks should prefer the
// await clause (AsyncAwait), which never blocks a worker.
func (d *DDF) Await() any {
	d.mu.Lock()
	if d.full.Load() {
		v := d.val
		d.mu.Unlock()
		return v
	}
	if d.fullCh == nil {
		d.fullCh = make(chan struct{})
	}
	ch := d.fullCh
	d.mu.Unlock()
	<-ch
	d.mu.Lock()
	v := d.val
	d.mu.Unlock()
	return v
}

// Put writes the DDF's value; a second Put panics, mirroring the paper's
// "successive attempt at setting the value results in a program error".
func (d *DDF) Put(ctx *Ctx, v any) {
	if err := d.TryPut(ctx, v); err != nil {
		panic(err)
	}
}

// Get returns the value. It never blocks: reading an empty DDF returns
// ErrDDFEmpty.
func (d *DDF) Get() (any, error) {
	if !d.full.Load() {
		return nil, ErrDDFEmpty
	}
	d.mu.Lock()
	v := d.val
	d.mu.Unlock()
	return v, nil
}

// MustGet returns the value and panics if the DDF is empty. Safe inside a
// task that awaited this DDF.
func (d *DDF) MustGet() any {
	v, err := d.Get()
	if err != nil {
		panic(err)
	}
	return v
}

// Full reports whether the DDF has been put.
func (d *DDF) Full() bool { return d.full.Load() }

// AsyncAwait spawns fn as a data-driven task that becomes runnable once
// ALL the listed DDFs have been put (the await clause / DDF_LIST AND
// model). With an empty list it degenerates to Async.
func (c *Ctx) AsyncAwait(fn func(*Ctx), ddfs ...*DDF) {
	c.asyncAwait(false, fn, ddfs)
}

// AsyncAwaitAny spawns fn once ANY of the listed DDFs has been put (the
// DDF_LIST OR model). The task is released exactly once even if several
// puts race; the one-shot token is checked-and-set atomically, as in the
// paper's wrapper-with-token design.
func (c *Ctx) AsyncAwaitAny(fn func(*Ctx), ddfs ...*DDF) {
	c.asyncAwait(true, fn, ddfs)
}

func (c *Ctx) asyncAwait(or bool, fn func(*Ctx), ddfs []*DDF) {
	if len(ddfs) == 0 {
		c.Async(fn)
		return
	}
	f := c.finish
	if f != nil {
		f.inc()
	}
	reg := &ddtReg{or: or, rt: c.w.rt, task: Task{fn: fn, finish: f}}
	if reg.register(ddfs) {
		reg.fire(c)
	}
}

// Block blocks the calling task until all of ddfs (any: at least one of
// them) have been put. It is the blocking counterpart of the await
// clause, for waits on events from outside the node — HCMPI's Wait.
//
// The task is suspended, not the worker, and not under another task.
// While nothing else is runnable the worker idles as in a finish join
// (idle hook, spin, park), so a wait with no competing work costs no
// goroutine switch. But a task the worker finds is never started on top
// of the blocked one, as a join would: the blocked task's continuation
// would then be buried until that task returns, and two ranks whose
// blocking tasks stack up in different orders deadlock on each other.
// The found task goes to a stand-in goroutine instead, which works in
// this worker's place until the blocked task has resumed (standIn).
func (c *Ctx) Block(any bool, ddfs ...*DDF) {
	w := c.w
	if w.unblock == nil {
		w.unblock = make(chan struct{}, 1)
	}
	reg := &ddtReg{or: any, blocked: true, rt: w.rt}
	reg.task.ctx.w = w
	if len(ddfs) == 0 || reg.register(ddfs) {
		return
	}
	w.block(reg)
	w.beat()
}
