package uts

import (
	"math/rand"

	"hcmpi/internal/distsched"
	"hcmpi/internal/mpi"
)

// The reference MPI implementation: every core is an MPI rank running the
// work-stealing algorithm of Dinan et al. (IPDPS'07). Steals are
// two-sided — the thief sends a request and the victim must notice it at
// a polling boundary and answer with either a chunk of its stack or a
// reject — and termination uses a token-passing algorithm, as in the
// reference code. Because our transport is asynchronous (messages can be
// delivered but not yet consumed), the ring runs Safra's algorithm
// (EWD998) through the shared distsched.Barrier detector: the token
// accumulates each rank's sent-minus-received count of basic messages,
// receipt of a basic message blackens the receiver, and rank 0 declares
// termination only on a white round whose total message deficit is zero.
//
// The paper's Table III attributes MPI's collapse at scale to exactly the
// two-sided steal structure: failed steals burn victim CPU and network.

// Message tags for the UTS protocol.
const (
	tagStealReq  = 1 // thief -> victim: empty payload
	tagStealResp = 2 // victim -> thief: chunk of nodes, or empty = reject
	tagToken     = 3 // termination ring token: [color, q]
	tagDone      = 4 // rank 0 -> all: terminate
)

// RunMPI executes UTS on one rank of an "MPI everywhere" job and returns
// this rank's counters. The global node total is the allreduced sum of
// Counters.Nodes; callers typically wrap this with World.Run.
func RunMPI(c *mpi.Comm, cfg Config, p Params) Counters {
	w := &mpiWorker{
		comm: c, cfg: &cfg, p: p.normalized(),
		rng: rand.New(rand.NewSource(int64(c.Rank())*7919 + 13)),
		bar: distsched.NewBarrier(c.Rank(), c.Size()),
	}
	return w.run()
}

type mpiWorker struct {
	comm *mpi.Comm
	cfg  *Config
	p    Params
	rng  *rand.Rand

	stack nodeStack
	wire  []byte // steal-response staging; Isend copies at post
	ctr   Counters

	bar  *distsched.Barrier // Safra termination detector (shared w/ distsched)
	done bool
}

// sendWork sends a work-carrying message, the only kind Safra must count:
// steal requests and rejects cannot reactivate a passive rank, so they
// are control traffic like the token itself. Counting them instead would
// livelock the ring — idle ranks steal continuously, and blackening on
// every reject would prevent any all-white round.
func (w *mpiWorker) sendWork(buf []byte, dest, tag int) {
	w.bar.WorkSent()
	w.comm.Isend(buf, dest, tag)
}

func (w *mpiWorker) run() Counters {
	if w.comm.Rank() == 0 {
		w.stack.push(w.cfg.Root())
	}
	w.wire = make([]byte, w.p.Chunk*encodedNodeSize)

	// The rank alternates between busy stretches and searches; one clock
	// read at each change of state closes one interval and opens the next.
	t := now()
	for !w.done {
		if w.stack.len() > 0 {
			served := w.ctr.Overhead
			for w.stack.len() > 0 {
				w.stack.expand(w.cfg, w.p.PollInterval, &w.ctr)
				w.service()
			}
			t1 := now()
			w.ctr.Work += t1 - t - (w.ctr.Overhead - served)
			t = t1
		} else {
			for !w.done && w.stack.len() == 0 {
				w.searchForWork()
			}
			t1 := now()
			w.ctr.Search += t1 - t
			t = t1
		}
	}
	// Drain: answer any straggling steal requests with rejects so no
	// thief blocks forever on a response.
	w.drainRejects()
	return w.ctr
}

// service answers pending steal requests and token arrivals while busy
// (the overhead component of Table III). The probes themselves are part
// of the polling loop; the clock starts when one finds something.
func (w *mpiWorker) service() {
	var ovh lazyTimer
	for {
		st, ok := w.comm.Iprobe(mpi.AnySource, tagStealReq)
		if !ok {
			break
		}
		ovh.start()
		var b [1]byte
		w.comm.Recv(b[:0], st.Source, tagStealReq)
		w.answerSteal(st.Source)
	}
	// A token can arrive while busy; hold it (forwarded when idle).
	if w.tryTakeToken() {
		ovh.start()
	}
	ovh.stop(&w.ctr.Overhead)
}

func (w *mpiWorker) tryTakeToken() bool {
	st, ok := w.comm.Iprobe(mpi.AnySource, tagToken)
	if ok {
		var buf [9]byte
		w.comm.Recv(buf[:], st.Source, tagToken)
		w.bar.TokenArrived(distsched.DecodeToken(buf[:]))
	}
	return ok
}

// answerSteal sends a chunk if the stack is deep enough, else a reject.
func (w *mpiWorker) answerSteal(thief int) {
	if w.stack.canRelease(w.p.Chunk) {
		w.sendWork(encodeNodes(w.wire, w.stack.releaseBottom(w.p.Chunk)), thief, tagStealResp)
		w.ctr.Released++
		return
	}
	w.comm.Isend(nil, thief, tagStealResp)
}

// searchForWork is one round of the idle loop: try a random victim,
// answer rejects, move the termination token, watch for done.
func (w *mpiWorker) searchForWork() {
	p := w.comm.Size()
	if p == 1 {
		w.done = true
		return
	}

	// Termination token handling while idle.
	w.forwardTokenIfIdle()
	if w.done {
		return
	}

	// Pick a victim and issue a two-sided steal.
	victim := pickVictim(w.rng, w.comm.Rank(), p)
	w.comm.Isend(nil, victim, tagStealReq)
	resp := w.comm.IrecvAdopt(victim, tagStealResp)

	for {
		if st, ok := resp.Test(); ok {
			if st.Bytes > 0 {
				// Safra receipt rule: blacken before the work becomes
				// executable.
				w.bar.WorkReceived()
				w.stack.decode(resp.Payload())
				w.ctr.Steals++
			} else {
				w.ctr.FailedSteals++
			}
			return
		}
		// While waiting: reject incoming steals, accept token, check done.
		if st, ok := w.comm.Iprobe(mpi.AnySource, tagStealReq); ok {
			var b [1]byte
			w.comm.Recv(b[:0], st.Source, tagStealReq)
			w.comm.Isend(nil, st.Source, tagStealResp)
		}
		w.tryTakeToken()
		w.forwardTokenIfIdle()
		if w.done {
			resp.Cancel()
			return
		}
		if _, ok := w.comm.Iprobe(mpi.AnySource, tagDone); ok {
			var b [1]byte
			w.comm.Recv(b[:0], mpi.AnySource, tagDone)
			w.done = true
			// Safra guarantees no basic message (in particular no work
			// response) is unconsumed at termination, so cancelling the
			// posted receive cannot lose tree nodes.
			resp.Cancel()
			return
		}
	}
}

// forwardTokenIfIdle drives Safra's ring through the shared detector:
// the token accumulates each passive machine's message deficit; rank 0
// terminates on a white round with zero total deficit.
func (w *mpiWorker) forwardTokenIfIdle() {
	if w.stack.len() > 0 || w.done {
		return
	}
	act, tok, next := w.bar.Advance(true)
	switch act {
	case distsched.ActionForward:
		w.comm.Isend(tok, next, tagToken)
	case distsched.ActionTerminate:
		for r := 0; r < w.comm.Size(); r++ {
			if r != w.comm.Rank() {
				w.comm.Isend(nil, r, tagDone)
			}
		}
		w.done = true
	}
}

// drainRejects answers straggler steal requests after termination.
func (w *mpiWorker) drainRejects() {
	for {
		st, ok := w.comm.Iprobe(mpi.AnySource, tagStealReq)
		if !ok {
			return
		}
		var b [1]byte
		w.comm.Recv(b[:0], st.Source, tagStealReq)
		w.comm.Isend(nil, st.Source, tagStealResp)
	}
}
