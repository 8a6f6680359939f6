package uts

import (
	"math/rand"
	"sync"
	"time"

	"hcmpi/internal/distsched"
	"hcmpi/internal/mpi"
)

// The MPI+OpenMP hybrid implementation the paper builds for Fig. 22 (no
// public reference exists). One MPI rank per node runs an OpenMP-style
// thread team over a shared work pool. In the improved variant threads
// that run out of work wait at a cancellable barrier: new local work
// cancels the wait, and a global steal request goes out as soon as the
// first thread idles, overlapping communication with the remaining
// computation. The naive staged variant (compute region, then MPI phase)
// is also provided; the paper reports it "suffered terribly from thread
// idleness".

// HybridMode selects the hybrid structure.
type HybridMode int

const (
	// HybridImproved overlaps global steals with computation via a
	// cancellable barrier.
	HybridImproved HybridMode = iota
	// HybridStaged is the naive fork-join structure: parallel region
	// until the pool drains, then a sequential MPI phase.
	HybridStaged
)

// RunHybrid executes UTS on one rank with an OpenMP-style team of
// `threads` threads. The world should use one rank per node.
func RunHybrid(c *mpi.Comm, cfg Config, p Params, threads int, mode HybridMode) Counters {
	h := &hybridRun{
		comm: c, cfg: &cfg, p: p.normalized(), threads: threads, mode: mode,
		rng: rand.New(rand.NewSource(int64(c.Rank())*104729 + 71)),
	}
	h.poolCond = sync.NewCond(&h.poolMu)
	h.bar = distsched.NewBarrier(c.Rank(), c.Size())
	h.wire = make([]byte, h.p.Chunk*encodedNodeSize)
	if c.Rank() == 0 {
		h.pool = append(h.pool, []Node{cfg.Root()})
	}
	h.run()
	return h.ctr
}

type hybridRun struct {
	comm    *mpi.Comm
	cfg     *Config
	p       Params
	threads int
	mode    HybridMode
	rng     *rand.Rand

	poolMu   sync.Mutex
	poolCond *sync.Cond
	pool     [][]Node
	spare    [][]Node // emptied chunk slices, reused by the next offload
	idle     int
	done     bool

	commMu      sync.Mutex // funnels MPI calls through one thread at a time
	wire        []byte     // steal-response staging (commMu); Isend copies at post
	outstanding bool
	pendingResp *mpi.Request
	// Safra termination detector (EWD998), shared with distsched.
	bar *distsched.Barrier

	ctrMu sync.Mutex
	ctr   Counters
}

func (h *hybridRun) run() {
	var wg sync.WaitGroup
	for t := 0; t < h.threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			h.threadLoop(tid)
		}(t)
	}
	wg.Wait()
	// Post-termination: reject stragglers.
	h.commMu.Lock()
	h.drainRejects()
	h.commMu.Unlock()
}

func (h *hybridRun) threadLoop(tid int) {
	w := &hybridThread{run: h, tid: tid, rng: rand.New(rand.NewSource(int64(h.comm.Rank()*131+tid)*2699 + 5))}
	w.loop()
	h.ctrMu.Lock()
	h.ctr.Add(w.ctr)
	h.ctrMu.Unlock()
}

type hybridThread struct {
	run   *hybridRun
	tid   int
	rng   *rand.Rand
	stack nodeStack
	ctr   Counters
}

// takeChunk (poolMu held) pops the newest pool chunk onto the thread's
// stack and keeps the emptied slice for reuse.
func (w *hybridThread) takeChunk() {
	h := w.run
	chunk := h.pool[len(h.pool)-1]
	h.pool = h.pool[:len(h.pool)-1]
	copy(w.stack.buf[w.stack.reserve(len(chunk)):], chunk)
	h.spare = append(h.spare, chunk[:0])
}

// putChunk (poolMu held) copies nodes — at most Chunk of them — into a
// pool chunk and wakes idle teammates.
func (h *hybridRun) putChunk(nodes []Node) {
	var c []Node
	if n := len(h.spare); n > 0 {
		c, h.spare = h.spare[n-1], h.spare[:n-1]
	}
	h.pool = append(h.pool, append(c, nodes...))
	h.poolCond.Broadcast()
}

func (w *hybridThread) loop() {
	h := w.run
	for {
		h.poolMu.Lock()
		if h.done {
			h.poolMu.Unlock()
			return
		}
		if len(h.pool) == 0 {
			// Idle thread: in the improved mode, kick off a global
			// steal immediately (the paper's overlap), then wait
			// cancellably.
			h.poolMu.Unlock()
			w.idlePhase()
			continue
		}
		w.takeChunk()
		h.poolMu.Unlock()

		// One busy stretch: Work is its length minus the offloads and
		// served polls inside it.
		t0, ovh := now(), w.ctr.Overhead
		for w.stack.len() > 0 && !h.isDone() {
			w.stack.expand(h.cfg, h.p.PollInterval, &w.ctr)
			w.offload()
			if h.mode == HybridImproved {
				// Improved overlap: busy threads lend MPI progress every
				// polling interval. The staged mode services MPI only
				// between "parallel regions" (team fully idle) — the
				// structural weakness the paper calls out.
				w.pollComm(false)
			}
		}
		w.ctr.Work += now() - t0 - (w.ctr.Overhead - ovh)
	}
}

// offload shares surplus work through the pool, waking idle teammates
// (the barrier cancellation of the improved scheme).
func (w *hybridThread) offload() {
	h := w.run
	if !w.stack.canRelease(h.p.Chunk) {
		return
	}
	t0 := now()
	h.poolMu.Lock()
	h.putChunk(w.stack.releaseBottom(h.p.Chunk))
	h.poolMu.Unlock()
	w.ctr.Overhead += now() - t0
}

// idlePhase: the thread has nothing; overlap a global steal with whatever
// computation remains on other threads, then wait for pool changes.
func (w *hybridThread) idlePhase() {
	h := w.run
	t0 := now()
	defer func() { w.ctr.Search += now() - t0 }()

	if h.mode == HybridImproved {
		w.pollComm(true)
	}

	h.poolMu.Lock()
	h.idle++
	if h.idle == h.threads && len(h.pool) == 0 {
		// Whole team idle: this thread becomes the communicator until
		// work or termination arrives (the staged mode reaches here too —
		// its "MPI phase" between parallel regions).
		h.poolMu.Unlock()
		w.fullIdleComm()
		h.poolMu.Lock()
	} else if len(h.pool) == 0 && !h.done {
		// Cancellable wait: woken by offload broadcasts, work arrival, or
		// termination. Bounded so MPI keeps being polled.
		waitWithTimeout(h.poolCond, &h.poolMu, 50*time.Microsecond) //hclint:allow poolCond is NewCond(&poolMu); Wait releases poolMu, association is through the parameters
	}
	h.idle--
	h.poolMu.Unlock()
}

// fullIdleComm runs MPI progress while the team is fully idle: issue
// steals, service requests, run the termination ring.
func (w *hybridThread) fullIdleComm() {
	w.pollComm(true)
	w.tryForwardToken()
	time.Sleep(2 * time.Microsecond)
}

// pollComm gives MPI progress to at most one thread at a time: service
// steal requests (victim side), collect steal responses, receive tokens
// and done. An idle thread (wantSteal) also issues a new request when
// none is outstanding, and its poll is part of its search; a busy
// thread's poll is overhead from the moment it finds something to serve.
func (w *hybridThread) pollComm(wantSteal bool) {
	h := w.run
	if !h.commMu.TryLock() {
		return
	}
	defer h.commMu.Unlock()
	var ovh lazyTimer
	found := func() {
		if !wantSteal {
			ovh.start()
		}
	}
	defer ovh.stop(&w.ctr.Overhead)

	// Victim side: answer steal requests from the shared pool.
	for {
		st, ok := h.comm.Iprobe(mpi.AnySource, tagStealReq)
		if !ok {
			break
		}
		found()
		var b [1]byte
		h.comm.Recv(b[:0], st.Source, tagStealReq)
		h.answerSteal(st.Source)
	}
	// Thief side: collect an outstanding response.
	if h.pendingResp != nil {
		if st, ok := h.pendingResp.Test(); ok {
			found()
			if st.Bytes > 0 {
				// Safra receipt rule: blacken before the work becomes
				// executable.
				h.bar.WorkReceived()
				nodes := DecodeNodes(h.pendingResp.Payload())
				h.poolMu.Lock()
				h.pool = append(h.pool, nodes)
				h.poolCond.Broadcast()
				h.poolMu.Unlock()
				w.ctr.Steals++
			} else {
				w.ctr.FailedSteals++
			}
			h.pendingResp = nil
			h.outstanding = false
		}
	}
	// New steal request.
	if wantSteal && !h.outstanding && h.comm.Size() > 1 {
		victim := pickVictim(h.rng, h.comm.Rank(), h.comm.Size())
		h.comm.Isend(nil, victim, tagStealReq)
		h.pendingResp = h.comm.IrecvAdopt(victim, tagStealResp)
		h.outstanding = true
	}
	// Token and done.
	if st, ok := h.comm.Iprobe(mpi.AnySource, tagToken); ok {
		found()
		var buf [9]byte
		h.comm.Recv(buf[:], st.Source, tagToken)
		h.bar.TokenArrived(distsched.DecodeToken(buf[:]))
	}
	if _, ok := h.comm.Iprobe(mpi.AnySource, tagDone); ok {
		found()
		var b [1]byte
		h.comm.Recv(b[:0], mpi.AnySource, tagDone)
		h.setDone()
	}
}

// answerSteal (commMu held): hand a pool chunk to the thief or reject.
func (h *hybridRun) answerSteal(thief int) {
	h.poolMu.Lock()
	var msg []byte
	if len(h.pool) > 1 { // keep one chunk for the team
		chunk := h.pool[0]
		h.pool = h.pool[1:]
		msg = encodeNodes(h.wire[:len(chunk)*encodedNodeSize], chunk)
		h.spare = append(h.spare, chunk[:0])
	}
	h.poolMu.Unlock()
	if msg != nil {
		// Safra: count the work-carrying send before it leaves.
		h.bar.WorkSent()
		h.comm.Isend(msg, thief, tagStealResp)
		h.ctrMu.Lock()
		h.ctr.Released++
		h.ctrMu.Unlock()
		return
	}
	h.comm.Isend(nil, thief, tagStealResp)
}

// tryForwardToken: Dijkstra ring at rank granularity; requires the whole
// team idle with an empty pool and no outstanding steal.
func (w *hybridThread) tryForwardToken() {
	h := w.run
	if !h.commMu.TryLock() {
		return
	}
	defer h.commMu.Unlock()
	h.poolMu.Lock()
	quiescent := h.idle == h.threads && len(h.pool) == 0 && !h.done
	h.poolMu.Unlock()
	// An outstanding steal request does not block the token: the sender
	// of any in-flight work is black, so a transfer racing the token
	// forces another round rather than a premature termination.
	act, tok, next := h.bar.Advance(quiescent)
	switch act {
	case distsched.ActionForward:
		h.comm.Isend(tok, next, tagToken)
	case distsched.ActionTerminate:
		for r := 0; r < h.comm.Size(); r++ {
			if r != h.comm.Rank() {
				h.comm.Isend(nil, r, tagDone)
			}
		}
		h.setDone()
	}
}

func (h *hybridRun) setDone() {
	h.poolMu.Lock()
	h.done = true
	h.poolCond.Broadcast()
	h.poolMu.Unlock()
}

func (h *hybridRun) isDone() bool {
	h.poolMu.Lock()
	defer h.poolMu.Unlock()
	return h.done
}

func (h *hybridRun) drainRejects() {
	for {
		st, ok := h.comm.Iprobe(mpi.AnySource, tagStealReq)
		if !ok {
			return
		}
		var b [1]byte
		h.comm.Recv(b[:0], st.Source, tagStealReq)
		h.comm.Isend(nil, st.Source, tagStealResp)
	}
}

// waitWithTimeout waits on cond with a deadline; mu must be held.
func waitWithTimeout(cond *sync.Cond, mu *sync.Mutex, d time.Duration) {
	timer := time.AfterFunc(d, func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})
	cond.Wait()
	timer.Stop()
}
