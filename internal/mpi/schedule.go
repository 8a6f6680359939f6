package mpi

// Collectives as schedules (the libNBC model). A collective is a
// sequence of rounds; a round is a set of posted receives (plus the
// sends that go with them), and the next round is posted as soon as every
// request of the current one has completed. Nothing inside a schedule
// blocks: whoever owns it advances it by polling — a blocking collective
// is Start plus a drive to completion on the caller's goroutine, a
// non-blocking one hands the schedule back as its handle (MPI's weak
// progress: it advances when its owner tests or waits on it), and HCMPI's
// progress sweep advances the schedules of its collective tasks beside
// the point-to-point requests it polls. Each algorithm is written once,
// in collectives.go and rma.go.
//
// The paper (2013) predates MPI-3's non-blocking collectives and says
// HCMPI "will add support ... once they become part of the MPI
// standard"; they since have (MPI_Ibarrier, MPI_Ibcast, MPI_Iallreduce,
// ...), and a started Schedule is exactly such a handle: there is no
// helper goroutine, so it advances only when its owner tests or waits on
// it. Its rounds use the same reserved tag space as the blocking
// collectives, so blocking and non-blocking collectives mix freely as
// long as every rank starts them in the same order.
//
// Sends are eager (the payload is copied at post), so a round waits only
// for its receives; a send is recycled once it is seen complete, and one
// still in flight when the schedule finishes is left to the transport.
// An errored request (a crashed peer) completes its round like any
// other: the schedule keeps feeding the rounds its surviving peers wait
// on, and the first error it recycles becomes the collective's
// Status.Err, so a survivor learns that its result is not the fold of
// every rank.

// collAlg names a schedule's algorithm.
type collAlg uint8

const (
	algNone collAlg = iota
	algBarrier
	algBcast
	algReduce
	algAllreduce
	algScan
	algScatter
	algGather
	algAllgather
	algFence
	algWinCreate
)

// Schedule is one collective operation in progress. A describing method
// (Barrier, Bcast, Reduce, …) records the call without communicating;
// Start takes the collective's sequence numbers on a Comm and posts the
// first round; Progress advances it. The zero value is ready to be
// described, and a finished (or aborted) schedule may be described
// again: its request lists are kept for reuse.
type Schedule struct {
	c   *Comm
	alg collAlg

	// The call's arguments.
	data  []byte   // input; the broadcast buffer for Bcast
	parts [][]byte // Scatter input, one part per rank
	root  int
	dt    Datatype
	op    Op
	win   *Win

	seq   int // collective sequence number keying the rounds' tags
	phase int // position within the algorithm
	mask  int // binomial-tree distance of the current reduce round

	reqs    []*Request // the current round's requests
	sends   []*Request // sends not yet seen complete
	scratch [2][]byte  // pool buffers handed back when the schedule finishes
	acc     []byte     // reduce/scan accumulator
	tmp     []byte     // an incoming operand
	res     []byte     // the result (the broadcast buffer for Bcast)
	out     [][]byte   // per-rank results of gather-style collectives
	err     error      // the first errored request's Err
	done    bool
}

// Reset clears the schedule for its next description, dropping every
// reference to the previous call's buffers but keeping the request
// lists' storage.
func (s *Schedule) Reset() {
	*s = Schedule{reqs: s.reqs[:0], sends: s.sends[:0]}
}

func (s *Schedule) describe(alg collAlg) {
	s.Reset()
	s.alg = alg
}

// nextCollSeq atomically reserves n consecutive collective sequence
// numbers on this rank and returns the first.
func (c *Comm) nextCollSeq(n int) int {
	c.mu.Lock()
	s := c.collSeq
	c.collSeq += n
	c.mu.Unlock()
	return s
}

// Start begins the described collective on c: it takes the collective's
// sequence number — every rank must start its collectives in the same
// order — and posts the first round.
func (s *Schedule) Start(c *Comm) {
	s.c = c
	seqs := 1
	if s.alg == algAllreduce {
		seqs = 2 // the reduce, then the bcast of its result
	}
	s.seq = c.nextCollSeq(seqs)
	switch s.alg {
	case algBcast:
		s.res = s.data
	case algReduce:
		if c.rank == s.root {
			s.res = make([]byte, len(s.data))
			s.acc = s.res
		} else {
			s.acc = s.borrow(len(s.data))
		}
		copy(s.acc, s.data)
	case algAllreduce, algScan:
		s.res = make([]byte, len(s.data))
		copy(s.res, s.data)
		s.acc = s.res
	case algScatter:
		if c.rank == s.root && len(s.parts) != c.size {
			panic("mpi: Scatter needs one part per rank")
		}
	case algWinCreate:
		c.register(s.win)
	}
	s.advance()
}

// Progress advances the schedule without blocking: while every request
// of the current round has completed, it consumes the round and posts
// the next. It reports whether the collective has finished.
func (s *Schedule) Progress() bool {
	for !s.done {
		for _, r := range s.reqs {
			if !r.isDone() {
				s.reapSends()
				return false
			}
		}
		s.advance()
	}
	return true
}

// advance runs the algorithm from its current position: it consumes the
// completed round, if any, and posts the next one or finishes.
func (s *Schedule) advance() {
	var done bool
	switch s.alg {
	case algBarrier, algWinCreate:
		done = s.barrier()
	case algBcast:
		done = s.bcast()
	case algReduce, algAllreduce:
		done = s.reduce()
		if done && s.alg == algAllreduce {
			// Allreduce is a reduce to rank 0 followed by a bcast of its
			// result, on the next sequence number.
			s.alg, s.seq, s.phase = algBcast, s.seq+1, 0
			done = s.bcast()
		}
	case algScan:
		done = s.scan()
	case algScatter:
		done = s.scatter()
	case algGather:
		done = s.gather()
	case algAllgather:
		done = s.exchange()
	case algFence:
		done = s.fence()
	default:
		panic("mpi: starting an undescribed collective")
	}
	if done {
		s.finish()
	}
}

// Abort gives the schedule up: its posted receives are withdrawn and
// their requests recycled. A receive that lost the withdrawal to a
// matching delivery may still be writing into the schedule's buffers, so
// those are left to the GC rather than handed back to the pool. The
// schedule is finished from then on.
func (s *Schedule) Abort() {
	for i, r := range s.reqs {
		if r.Cancel() {
			r.Free()
		}
		s.reqs[i] = nil
	}
	s.reqs = s.reqs[:0]
	s.scratch = [2][]byte{}
	s.finish()
}

// Wait drives the schedule to completion on the calling goroutine and
// returns its status.
func (s *Schedule) Wait() *Status {
	s.wait()
	st := s.status()
	return &st
}

// Test advances the schedule and reports its status once it has
// finished.
func (s *Schedule) Test() (*Status, bool) {
	if !s.Progress() {
		return nil, false
	}
	st := s.status()
	return &st, true
}

// Payload returns the collective's result: the reduced vector of a
// Reduce (at root), Allreduce or Scan, the received part of a Scatter,
// the buffer of a Bcast.
func (s *Schedule) Payload() []byte { return s.res }

// Parts returns a gather-style collective's per-rank results.
func (s *Schedule) Parts() [][]byte { return s.out }

// Err returns the first error any of the collective's requests completed
// with, or nil.
func (s *Schedule) Err() error { return s.err }

func (s *Schedule) status() Status { return Status{Bytes: len(s.res), Err: s.err} }

// wait blocks on the current round's requests between advances.
func (s *Schedule) wait() {
	for !s.Progress() {
		for _, r := range s.reqs {
			if !r.isDone() {
				r.WaitStatus()
				break
			}
		}
	}
}

// run starts s on c and drives it to completion: a blocking collective.
func (c *Comm) run(s *Schedule) {
	s.Start(c)
	s.wait()
}

// recv posts one of the round's receives into buf.
func (s *Schedule) recv(buf []byte, src, tag int) {
	s.reqs = append(s.reqs, s.c.irecv(buf, src, tag, false))
}

// recvAdopt posts one of the round's receives, adopting the payload.
func (s *Schedule) recvAdopt(src, tag int) {
	s.reqs = append(s.reqs, s.c.irecv(nil, src, tag, true))
}

// send posts one of the round's sends; one the transport completed on
// the spot is recycled at once.
func (s *Schedule) send(buf []byte, dest, tag int) {
	r := s.c.isend(buf, dest, tag)
	if r.isDone() {
		s.free(r)
		return
	}
	s.sends = append(s.sends, r)
}

// free recycles a completed request, keeping its error if it is the
// schedule's first.
func (s *Schedule) free(r *Request) {
	if s.err == nil {
		s.err = r.status.Err
	}
	r.Free()
}

// freeRound recycles the completed round's requests.
func (s *Schedule) freeRound() {
	for i, r := range s.reqs {
		s.free(r)
		s.reqs[i] = nil
	}
	s.reqs = s.reqs[:0]
}

// reapSends recycles the sends that have completed.
func (s *Schedule) reapSends() {
	live := s.sends[:0]
	for _, r := range s.sends {
		if r.isDone() {
			s.free(r)
		} else {
			live = append(live, r)
		}
	}
	clear(s.sends[len(live):])
	s.sends = live
}

// borrow takes an n-byte scratch buffer from the transport's pool for
// the life of the schedule.
func (s *Schedule) borrow(n int) []byte {
	b := s.c.bufs.Get(n)
	for i := range s.scratch {
		if s.scratch[i] == nil {
			s.scratch[i] = b
			return b
		}
	}
	panic("mpi: schedule scratch exhausted")
}

// finish marks the schedule done, recycles its completed sends and
// hands its scratch buffers back. Sends still in flight are left to the
// transport.
func (s *Schedule) finish() {
	s.done = true
	s.reapSends()
	clear(s.sends)
	s.sends = s.sends[:0]
	for i, b := range s.scratch {
		s.c.bufs.Put(b)
		s.scratch[i] = nil
	}
	s.acc, s.tmp = nil, nil
}
