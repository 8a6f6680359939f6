package mpi

// Collective operations. Every rank must call each collective in the
// same order; a per-rank sequence counter keys the reserved tag space so
// that successive collectives never cross-match. Each algorithm is a
// schedule of rounds (schedule.go): the methods on Schedule below
// describe a call, the step functions advance it, and the blocking Comm
// methods start a schedule and drive it to completion.

const collSlots = 64

func collTag(seq, slot int) int {
	return maxUserTag + seq*collSlots + slot
}

// Barrier blocks until every rank has entered it (dissemination
// algorithm, ceil(log2 p) rounds).
func (c *Comm) Barrier() {
	var s Schedule
	s.Barrier()
	c.run(&s)
}

// Bcast broadcasts root's buf to every rank's buf (binomial tree). All
// ranks must pass buffers of the same length.
func (c *Comm) Bcast(buf []byte, root int) {
	var s Schedule
	s.Bcast(buf, root)
	c.run(&s)
}

// Reduce folds every rank's data with op; the result lands at root (other
// ranks get nil). Binomial-tree reduction.
func (c *Comm) Reduce(data []byte, dt Datatype, op Op, root int) []byte {
	var s Schedule
	s.Reduce(data, dt, op, root)
	c.run(&s)
	return s.res
}

// Allreduce folds every rank's data and returns the result on every rank
// (reduce to rank 0, then broadcast).
func (c *Comm) Allreduce(data []byte, dt Datatype, op Op) []byte {
	var s Schedule
	s.Allreduce(data, dt, op)
	c.run(&s)
	return s.res
}

// Scan computes the inclusive prefix reduction: rank i receives the fold
// of ranks 0..i.
func (c *Comm) Scan(data []byte, dt Datatype, op Op) []byte {
	var s Schedule
	s.Scan(data, dt, op)
	c.run(&s)
	return s.res
}

// Scatter distributes parts[i] from root to rank i; every rank returns its
// own part. Only root's parts argument is consulted.
func (c *Comm) Scatter(parts [][]byte, root int) []byte {
	var s Schedule
	s.Scatter(parts, root)
	c.run(&s)
	return s.res
}

// Gather collects each rank's data at root, which receives one slice per
// rank (indexed by rank); non-roots return nil.
func (c *Comm) Gather(data []byte, root int) [][]byte {
	var s Schedule
	s.Gather(data, root)
	c.run(&s)
	return s.out
}

// Allgather collects each rank's data on every rank.
func (c *Comm) Allgather(data []byte) [][]byte {
	var s Schedule
	s.Allgather(data)
	c.run(&s)
	return s.out
}

// Barrier describes a barrier.
func (s *Schedule) Barrier() { s.describe(algBarrier) }

// Bcast describes a broadcast of root's buf into every rank's buf. The
// buffer must not be touched until the schedule finishes.
func (s *Schedule) Bcast(buf []byte, root int) {
	s.describe(algBcast)
	s.data, s.root = buf, root
}

// Reduce describes a reduction to root.
func (s *Schedule) Reduce(data []byte, dt Datatype, op Op, root int) {
	s.describe(algReduce)
	s.data, s.dt, s.op, s.root = data, dt, op, root
}

// Allreduce describes an allreduce.
func (s *Schedule) Allreduce(data []byte, dt Datatype, op Op) {
	s.describe(algAllreduce)
	s.data, s.dt, s.op = data, dt, op
}

// Scan describes an inclusive prefix reduction.
func (s *Schedule) Scan(data []byte, dt Datatype, op Op) {
	s.describe(algScan)
	s.data, s.dt, s.op = data, dt, op
}

// Scatter describes a scatter of root's parts.
func (s *Schedule) Scatter(parts [][]byte, root int) {
	s.describe(algScatter)
	s.parts, s.root = parts, root
}

// Gather describes a gather at root.
func (s *Schedule) Gather(data []byte, root int) {
	s.describe(algGather)
	s.data, s.root = data, root
}

// Allgather describes an allgather.
func (s *Schedule) Allgather(data []byte) {
	s.describe(algAllgather)
	s.data = data
}

// The step functions below run an algorithm from its current position —
// first from Start, then each time the round they posted has completed —
// and report whether it has finished.

// barrier is the dissemination barrier: in round k a rank signals rank+2^k
// and waits for rank−2^k, for ceil(log2 p) rounds.
func (s *Schedule) barrier() bool {
	c, p := s.c, s.c.size
	if len(s.reqs) > 0 {
		s.freeRound()
		s.phase++
	}
	d := 1 << s.phase
	if d >= p {
		return true
	}
	tag := collTag(s.seq, s.phase)
	s.recv(nil, (c.rank-d+p)%p, tag)
	s.send(nil, (c.rank+d)%p, tag)
	return false
}

// bcast is a binomial tree from root over s.res: a rank at virtual rank
// v > 0 receives from v with its lowest set bit cleared, then every rank
// forwards to v+m for each power of two m below v's lowest set bit (every
// m, at the root).
func (s *Schedule) bcast() bool {
	c, p := s.c, s.c.size
	v := (c.rank - s.root + p) % p
	tag := collTag(s.seq, 0)
	if v != 0 && s.phase == 0 {
		s.phase = 1
		s.recv(s.res, (v&(v-1)+s.root)%p, tag)
		return false
	}
	s.freeRound()
	stop := p
	if v != 0 {
		stop = v & -v
	}
	for m := 1; m < stop && v+m < p; m <<= 1 {
		s.send(s.res, (v+m+s.root)%p, tag)
	}
	return true
}

// reduce folds the ranks' accumulators toward root over a binomial tree:
// at distance m a rank whose virtual rank v has bit m set sends its
// accumulator to v−m and is done; otherwise it folds in the accumulator
// of v+m, if that rank exists.
func (s *Schedule) reduce() bool {
	c, p := s.c, s.c.size
	v := (c.rank - s.root + p) % p
	tag := collTag(s.seq, 1)
	if s.mask == 0 {
		s.mask = 1
	} else {
		s.freeRound()
		s.op.Combine(s.dt, s.acc, s.tmp)
		s.mask <<= 1
	}
	for ; s.mask < p; s.mask <<= 1 {
		if v&s.mask != 0 {
			s.send(s.acc, (v-s.mask+s.root)%p, tag)
			return true
		}
		if v+s.mask < p {
			if s.tmp == nil {
				s.tmp = s.borrow(len(s.acc))
			}
			s.recv(s.tmp, (v+s.mask+s.root)%p, tag)
			return false
		}
	}
	return true
}

// scan is linear: rank i waits for the fold of ranks 0..i−1 from rank
// i−1, folds its own data in behind it and passes the result on to i+1.
func (s *Schedule) scan() bool {
	c := s.c
	tag := collTag(s.seq, 2)
	if c.rank > 0 {
		if s.phase == 0 {
			s.phase = 1
			s.tmp = s.borrow(len(s.acc))
			s.recv(s.tmp, c.rank-1, tag)
			return false
		}
		s.freeRound()
		// acc = prev ⊕ own (fold order matters for non-commutative ops).
		s.op.Combine(s.dt, s.tmp, s.acc)
		copy(s.acc, s.tmp)
	}
	if c.rank < c.size-1 {
		s.send(s.acc, c.rank+1, tag)
	}
	return true
}

// scatter is linear: root sends every other rank its part.
func (s *Schedule) scatter() bool {
	c := s.c
	tag := collTag(s.seq, 3)
	if c.rank == s.root {
		for r, part := range s.parts {
			if r != s.root {
				s.send(part, r, tag)
			}
		}
		s.res = make([]byte, len(s.parts[s.root]))
		copy(s.res, s.parts[s.root])
		return true
	}
	if s.phase == 0 {
		s.phase = 1
		s.recvAdopt(s.root, tag)
		return false
	}
	s.res = s.reqs[0].payload
	s.freeRound()
	return true
}

// gather is linear: every other rank sends root its data.
func (s *Schedule) gather() bool {
	c := s.c
	tag := collTag(s.seq, 4)
	if c.rank != s.root {
		s.send(s.data, s.root, tag)
		return true
	}
	if s.phase == 0 {
		s.phase = 1
		s.out = s.own(s.data)
		for r := range s.out {
			if r != c.rank {
				s.recvAdopt(r, tag)
			}
		}
		return false
	}
	s.collect()
	return true
}

// exchange is the linear allgather: one round that posts a receive from
// and a send of data to every other rank.
func (s *Schedule) exchange() bool {
	c := s.c
	if s.phase == 1 {
		s.collect()
		return true
	}
	s.phase = 1
	tag := collTag(s.seq, 5)
	s.out = s.own(s.data)
	for r := range s.out {
		if r != c.rank {
			s.recvAdopt(r, tag)
			s.send(s.data, r, tag)
		}
	}
	return false
}

// own starts a gather-style result: one slot per rank, this rank's
// holding a copy of its own contribution.
func (s *Schedule) own(data []byte) [][]byte {
	out := make([][]byte, s.c.size)
	out[s.c.rank] = make([]byte, len(data))
	copy(out[s.c.rank], data)
	return out
}

// collect moves the round's adopted payloads into out: one receive per
// rank other than this one, posted in rank order.
func (s *Schedule) collect() {
	i := 0
	for r := range s.out {
		if r != s.c.rank {
			s.out[r] = s.reqs[i].payload
			i++
		}
	}
	s.freeRound()
}
