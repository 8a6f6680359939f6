package mpi

import (
	"fmt"
	"sync"
)

// One-sided communication (RMA). The paper: "The only MPI feature that
// HCMPI does not currently support is the remote memory access (RMA),
// however that is straightforward to add to HCMPI and is a subject of
// future work." This file adds it to the substrate: window creation,
// Put/Get/Accumulate, and fence synchronization, in the style of MPI-2
// active-target RMA.
//
// A window exposes a byte buffer per rank. One-sided operations are
// applied at the target when their message is delivered — no target-side
// code runs (true passive-target progress, which this substrate can
// provide because delivery callbacks execute in the network layer). A
// Put/Accumulate request completes when the operation has been applied;
// Fence waits for all of this rank's outstanding operations and then
// synchronizes all ranks, so every rank observes all pre-fence RMAs.

// rmaKind discriminates one-sided operations on the wire.
type rmaKind byte

const (
	rmaPut rmaKind = iota
	rmaAcc
	rmaGetReq
	rmaGetResp
)

// The RMA block of the reserved-tag registry (tags.go): one-sided
// data/requests handled at the target, and get responses.
const (
	tagRMA     = TagRMA
	tagRMAResp = TagRMAResp
)

// Win is an RMA window over a local buffer, symmetric across ranks.
type Win struct {
	comm *Comm
	id   int
	buf  []byte

	mu sync.Mutex
	// epochPending counts RMAs issued by this rank in the current fence
	// epoch whose remote application has not been acknowledged.
	epochPending []*Request
	getSeq       int
	pendingGets  map[int]*Request
}

// winRegistry is per-comm window bookkeeping.
func (c *Comm) winByID(id int) *Win {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wins[id]
}

// WinCreate collectively creates a window exposing buf on every rank.
// All ranks must call it in the same order.
func (c *Comm) WinCreate(buf []byte) *Win {
	var s Schedule
	w := s.WinCreate(buf)
	c.run(&s)
	return w
}

// WinCreate describes the collective creation of a window over buf and
// returns the window, usable once the schedule has finished: Start
// registers it locally, and a barrier then makes it exist everywhere
// before any RMA can target it.
func (s *Schedule) WinCreate(buf []byte) *Win {
	s.describe(algWinCreate)
	s.win = &Win{buf: buf, pendingGets: map[int]*Request{}}
	return s.win
}

// register gives w the next window id on c. Every rank creates its
// windows in the same order, so the ids agree.
func (c *Comm) register(w *Win) {
	c.mu.Lock()
	w.comm, w.id = c, c.nextWin
	c.nextWin++
	if c.wins == nil {
		c.wins = map[int]*Win{}
	}
	c.wins[w.id] = w
	c.mu.Unlock()
}

// Buf returns the locally exposed buffer.
func (w *Win) Buf() []byte { return w.buf }

// wire format: kind(1) win(4) offset(4) seq(4) dtSize(1) opCode(1) data...
func rmaEncode(kind rmaKind, win, offset, seq int, dt Datatype, op Op, data []byte) []byte {
	b := make([]byte, 15+len(data))
	b[0] = byte(kind)
	putU32(b[1:], uint32(win))
	putU32(b[5:], uint32(offset))
	putU32(b[9:], uint32(seq))
	b[13] = byte(dt.Size)
	b[14] = opCode(op)
	copy(b[15:], data)
	return b
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func opCode(op Op) byte {
	switch op.Name {
	case "sum":
		return 1
	case "prod":
		return 2
	case "max":
		return 3
	case "min":
		return 4
	}
	return 0
}

func opFromCode(c byte) Op {
	switch c {
	case 1:
		return OpSum
	case 2:
		return OpProd
	case 3:
		return OpMax
	case 4:
		return OpMin
	}
	return OpSum
}

func dtFromSize(s byte) Datatype {
	switch s {
	case 1:
		return Byte
	case 4:
		return Int32
	case 8:
		return Int64
	}
	return Byte
}

// applyRMA executes one arriving one-sided operation at the target.
func (c *Comm) applyRMA(src int, payload []byte) {
	kind := rmaKind(payload[0])
	winID := int(getU32(payload[1:]))
	offset := int(getU32(payload[5:]))
	seq := int(getU32(payload[9:]))
	dt := dtFromSize(payload[13])
	op := opFromCode(payload[14])
	data := payload[15:]
	w := c.winByID(winID)
	if w == nil {
		panic(fmt.Sprintf("mpi: RMA on unknown window %d", winID))
	}
	switch kind {
	case rmaPut:
		w.mu.Lock()
		copy(w.buf[offset:], data)
		w.mu.Unlock()
	case rmaAcc:
		w.mu.Lock()
		op.Combine(dt, w.buf[offset:offset+len(data)], data)
		w.mu.Unlock()
	case rmaGetReq:
		n := int(getU32(data))
		w.mu.Lock()
		out := make([]byte, n)
		copy(out, w.buf[offset:offset+n])
		w.mu.Unlock()
		c.isend(rmaEncode(rmaGetResp, winID, offset, seq, dt, op, out), src, tagRMAResp)
	}
}

// applyGetResp completes a pending Get with the returned bytes; it runs
// at delivery time like applyRMA.
func (c *Comm) applyGetResp(src int, payload []byte) {
	winID := int(getU32(payload[1:]))
	seq := int(getU32(payload[9:]))
	w := c.winByID(winID)
	w.mu.Lock()
	req := w.pendingGets[seq]
	delete(w.pendingGets, seq)
	w.mu.Unlock()
	req.payload = payload[15:]
	req.complete(Status{Source: src, Bytes: len(payload) - 15})
}

// Put writes data into the target rank's window at offset. It returns a
// request that completes when the write has been applied at the target;
// Fence also orders it.
func (w *Win) Put(data []byte, target, offset int) *Request {
	c := w.comm
	req := c.newRequest(reqSend)
	if target == c.rank {
		w.mu.Lock()
		copy(w.buf[offset:], data)
		w.mu.Unlock()
		req.complete(Status{Bytes: len(data)})
		return req
	}
	msg := rmaEncode(rmaPut, w.id, offset, 0, Byte, OpSum, data)
	under := c.isend(msg, target, tagRMA)
	go func() {
		under.Wait()
		req.complete(Status{Bytes: len(data)})
	}()
	w.track(req)
	return req
}

// Accumulate combines data into the target's window with op (element
// type dt), like MPI_Accumulate.
func (w *Win) Accumulate(data []byte, dt Datatype, op Op, target, offset int) *Request {
	c := w.comm
	req := c.newRequest(reqSend)
	if target == c.rank {
		w.mu.Lock()
		op.Combine(dt, w.buf[offset:offset+len(data)], data)
		w.mu.Unlock()
		req.complete(Status{Bytes: len(data)})
		return req
	}
	msg := rmaEncode(rmaAcc, w.id, offset, 0, dt, op, data)
	under := c.isend(msg, target, tagRMA)
	go func() {
		under.Wait()
		req.complete(Status{Bytes: len(data)})
	}()
	w.track(req)
	return req
}

// Get reads n bytes from the target's window at offset; the data is in
// the request payload after completion.
func (w *Win) Get(n, target, offset int) *Request {
	c := w.comm
	req := c.newRequest(reqRecv)
	req.takeAll = true
	if target == c.rank {
		w.mu.Lock()
		out := make([]byte, n)
		copy(out, w.buf[offset:offset+n])
		w.mu.Unlock()
		req.payload = out
		req.complete(Status{Bytes: n})
		return req
	}
	w.mu.Lock()
	seq := w.getSeq
	w.getSeq++
	w.pendingGets[seq] = req
	w.mu.Unlock()
	var nbuf [4]byte
	putU32(nbuf[:], uint32(n))
	c.isend(rmaEncode(rmaGetReq, w.id, offset, seq, Byte, OpSum, nbuf[:]), target, tagRMA)
	w.track(req)
	return req
}

// track records an outstanding epoch operation for Fence.
func (w *Win) track(r *Request) {
	w.mu.Lock()
	w.epochPending = append(w.epochPending, r)
	w.mu.Unlock()
}

// Fence closes the current access epoch: it waits for every one-sided
// operation this rank issued to be applied, then synchronizes all ranks,
// so that on return every rank observes all pre-fence RMAs
// (MPI_Win_fence with assert 0).
func (w *Win) Fence() {
	var s Schedule
	s.Fence(w)
	w.comm.run(&s)
}

// Fence describes closing w's access epoch.
func (s *Schedule) Fence(w *Win) {
	s.describe(algFence)
	s.win = w
}

// fence is one round that waits for the one-sided operations of the
// closing epoch, then an all-to-all marker exchange. A dissemination
// barrier is not enough for the second round: it tells a rank that every
// peer has entered, transitively, but hears from only log p of them
// directly, and on a transport where a Put "completes" once it is written
// to the peer's connection (TCP) a put from one of the others may still
// be in flight when the barrier lets go. A marker travels behind its
// sender's puts on the same ordered channel, and one-sided operations are
// applied at delivery, so a rank holding every peer's marker has had
// every pre-fence RMA applied to its window.
func (s *Schedule) fence() bool {
	c, w := s.c, s.win
	switch s.phase {
	case 0:
		s.phase = 1
		w.mu.Lock()
		s.reqs = append(s.reqs, w.epochPending...)
		clear(w.epochPending)
		w.epochPending = w.epochPending[:0]
		w.mu.Unlock()
		return false
	case 1:
		// The epoch's requests belong to their callers: let go, not free.
		clear(s.reqs)
		s.reqs = s.reqs[:0]
		s.phase = 2
		tag := collTag(s.seq, 0)
		for r := 0; r < c.size; r++ {
			if r != c.rank {
				s.recv(nil, r, tag)
				s.send(nil, r, tag)
			}
		}
		return false
	}
	s.freeRound()
	return true
}
