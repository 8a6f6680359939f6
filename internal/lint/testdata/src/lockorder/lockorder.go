// Package lockorder exercises the lock-order analyzer: an A→B / B→A
// acquisition cycle, locks held across blocking operations (directly
// and through a call), and the patterns that must stay clean —
// one-directional nesting and Cond.Wait under its own mutex.
package lockorder

import "sync"

type svc struct {
	a, b sync.Mutex
	c, d sync.Mutex
	data map[int]int
	sig  chan int
}

// abPath and baPath acquire the same two mutexes in opposite orders:
// two goroutines running them concurrently deadlock.
func (s *svc) abPath() {
	s.a.Lock()
	defer s.a.Unlock()
	s.b.Lock() // want: b acquired while a is held, opposite path exists
	s.data[1] = 1
	s.b.Unlock()
}

func (s *svc) baPath() {
	s.b.Lock()
	defer s.b.Unlock()
	s.a.Lock() // want: a acquired while b is held, opposite path exists
	s.data[2] = 2
	s.a.Unlock()
}

// cThenD nests in one direction only: no cycle, no finding.
func (s *svc) cThenD() {
	s.c.Lock()
	defer s.c.Unlock()
	s.d.Lock()
	s.data[3] = 3
	s.d.Unlock()
}

// heldAcross parks on a channel while holding a.
func (s *svc) heldAcross() {
	s.a.Lock()
	<-s.sig // want: a held across channel receive
	s.a.Unlock()
}

// viaCall blocks while holding a, one call deep.
func (s *svc) viaCall() {
	s.a.Lock()
	defer s.a.Unlock()
	s.emit() // want: a held across call to emit, which can block
}

func (s *svc) emit() {
	s.sig <- 1
}

// queue is the canonical condition-variable consumer: Cond.Wait
// releases the mutex it waits under, so holding mu across it is fine —
// the sync.NewCond call below is what establishes the association.
type queue struct {
	mu    sync.Mutex
	aux   sync.Mutex
	ready *sync.Cond
	wake  chan int
	items []int
}

func newQueue() *queue {
	q := &queue{wake: make(chan int)}
	q.ready = sync.NewCond(&q.mu)
	return q
}

func (q *queue) take() int {
	q.mu.Lock()
	for len(q.items) == 0 {
		q.ready.Wait() // ok: ready releases mu, the mutex held here
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.mu.Unlock()
	return v
}

// wrongMutex parks on ready while holding aux: Wait releases mu, not
// aux, so aux stays held for the whole park.
func (q *queue) wrongMutex() {
	q.aux.Lock()
	for len(q.items) == 0 {
		q.ready.Wait() // want: aux held across Cond.Wait
	}
	q.aux.Unlock()
}

// flush holds mu across a call to a lock-aware helper: drainLocked
// unlocks mu itself before parking, so the edge is exempt.
func (q *queue) flush() {
	q.mu.Lock()
	q.drainLocked()
	q.mu.Unlock()
}

// drainLocked follows the *Locked helper convention: called with mu
// held, releases it around its own blocking wait.
func (q *queue) drainLocked() {
	q.mu.Unlock()
	<-q.wake
	q.mu.Lock()
}

// hooked pairs a direct blocking call under a lock with a call through a
// stored function value. The value resolves, by signature, to every
// address-taken func() in the module — the blocking literal newHooked
// installs among them — so following it would charge one call with
// whatever any of them does. Like nonblocking, the analyzer stops there:
// the value's contract is its own.
type hooked struct {
	mu   sync.Mutex
	hook func()
	sig  chan int
}

func newHooked() *hooked {
	h := &hooked{sig: make(chan int)}
	h.hook = func() { <-h.sig }
	return h
}

// direct blocks under mu through a named call.
func (h *hooked) direct() {
	h.mu.Lock()
	h.park() // want: mu held across call to park, which can block
	h.mu.Unlock()
}

func (h *hooked) park() { <-h.sig }

// viaValue calls the stored hook under mu: a contract boundary.
func (h *hooked) viaValue() {
	h.mu.Lock()
	h.hook() // ok: a stored function value is not followed
	h.mu.Unlock()
}
