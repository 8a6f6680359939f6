package mpi

import (
	"sync"
	"sync/atomic"

	"hcmpi/internal/invariant"
	"hcmpi/internal/trace"
)

// Status describes a completed (or cancelled) operation, mirroring
// MPI_Status.
type Status struct {
	Source    int
	Tag       int
	Bytes     int  // bytes received (after any truncation)
	Truncated bool // the receive buffer was smaller than the message
	Cancelled bool
	// Err is non-nil when the operation did not complete normally:
	// ErrRankFailed (peer crashed) or ErrMessageDropped (lossy network
	// discarded the send). A runtime that withdraws an operation on its
	// own deadline (hcmpi's OpTimeout) reports ErrTimeout here.
	Err error
}

// reqKind distinguishes request flavours.
type reqKind uint8

const (
	reqSend reqKind = iota
	reqRecv
)

// Request is a non-blocking operation handle, mirroring MPI_Request.
//
// Requests are pooled per endpoint: a caller that has observed
// completion may hand the request back with Free, and stale async
// references (in-flight network callbacks, queued TCP frames) are fenced
// off by the generation counter — they captured the generation at issue
// time and become no-ops once Free bumps it.
type Request struct {
	kind reqKind
	comm *Comm

	// gen is bumped by Free (under mu); async completion paths capture
	// it at issue time and check it before touching the request.
	gen atomic.Uint64

	// mu guards completion (completed, status, done) and Free's reset.
	mu        sync.Mutex
	done      chan struct{} // lazily created; nil until someone blocks
	completed bool          // authoritative, guarded by mu
	status    Status

	// completedFlag mirrors completed for lock-free Test/isDone; the
	// atomic store in complete orders the status write before it.
	completedFlag atomic.Bool

	// recv-side matching criteria and destination buffer.
	src, tag int
	buf      []byte
	// takeAll, when set, makes the receive adopt the full payload slice
	// (used by RecvBytes for variable-size messages). pooled records that
	// the adopted slice came from the transport's buffer pool, so a
	// receiver that only borrows it can hand it back (FreeWithPayload).
	takeAll bool
	payload []byte
	pooled  bool
}

// maxReqPool bounds each endpoint's recycled-request list.
const maxReqPool = 256

// newRequest draws a request from the endpoint's pool, or allocates.
func (c *Comm) newRequest(kind reqKind) *Request {
	c.reqMu.Lock()
	if n := len(c.reqPool); n > 0 {
		r := c.reqPool[n-1]
		c.reqPool[n-1] = nil
		c.reqPool = c.reqPool[:n-1]
		c.reqMu.Unlock()
		c.reqHit.Inc()
		r.kind = kind
		return r
	}
	c.reqMu.Unlock()
	c.reqMiss.Inc()
	return &Request{kind: kind, comm: c}
}

// Free hands a COMPLETED request back to its endpoint's pool. After
// Free the caller must not touch the request (or any *Status previously
// returned by reference into it): the handle will be reissued. Freeing
// is optional — unfreed requests simply fall to the GC — and freeing an
// incomplete request is a programming error (asserted under the debug
// build tag; ignored otherwise).
func (r *Request) Free() {
	if r == nil || r.comm == nil {
		return
	}
	r.mu.Lock()
	if !r.completed {
		r.mu.Unlock()
		invariant.Assert(false, "mpi: Free of an incomplete request")
		return
	}
	r.gen.Add(1) // fence off stale network callbacks
	r.completed = false
	r.completedFlag.Store(false)
	r.done = nil
	r.status = Status{}
	r.buf = nil
	r.payload = nil
	r.pooled = false
	r.takeAll = false
	r.mu.Unlock()

	c := r.comm
	c.reqMu.Lock()
	if len(c.reqPool) < maxReqPool {
		c.reqPool = append(c.reqPool, r)
	}
	c.reqMu.Unlock()
}

// complete publishes the request's final status. It is single-assignment:
// the first caller wins, every later caller is a no-op. Paths that could
// otherwise race on a receive (matching delivery, Cancel, peer failure)
// are already serialized through Comm.unpost, which picks the
// deterministic winner before complete is reached.
func (r *Request) complete(st Status) {
	r.mu.Lock()
	r.completeLocked(st)
	r.mu.Unlock()
}

// completeGen is complete fenced by a generation: a stale caller (the
// request was freed and possibly reissued since the caller captured
// gen) is a no-op. It reports whether st became the request's status.
func (r *Request) completeGen(gen uint64, st Status) bool {
	r.mu.Lock()
	won := r.gen.Load() == gen && r.completeLocked(st)
	r.mu.Unlock()
	return won
}

func (r *Request) completeLocked(st Status) bool {
	if r.completed {
		return false
	}
	r.status = st
	r.completed = true
	r.completedFlag.Store(true)
	if r.done != nil {
		close(r.done)
	}
	return true
}

// isDone reports completion without consuming anything.
func (r *Request) isDone() bool { return r.completedFlag.Load() }

// doneChan returns the completion channel, creating it on demand: a
// request that is only ever Test/TestStatus-polled (the HCMPI comm
// worker's discipline) never allocates one.
func (r *Request) doneChan() <-chan struct{} {
	r.mu.Lock()
	if r.done == nil {
		if r.completed {
			r.mu.Unlock()
			return closedChan
		}
		r.done = make(chan struct{})
	}
	ch := r.done
	r.mu.Unlock()
	return ch
}

// closedChan is the shared already-closed channel doneChan hands out for
// completed requests.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Test reports whether the operation has completed, without blocking.
func (r *Request) Test() (*Status, bool) {
	if !r.completedFlag.Load() {
		return nil, false
	}
	// The atomic load above orders us after complete's status write, and
	// nothing rewrites status until the owner calls Free.
	st := r.status
	return &st, true
}

// TestStatus is Test returning the status by value — the
// allocation-free polling primitive.
func (r *Request) TestStatus() (Status, bool) {
	if !r.completedFlag.Load() {
		return Status{}, false
	}
	return r.status, true
}

// Wait blocks until the operation completes and returns its status.
func (r *Request) Wait() *Status {
	st := r.WaitStatus()
	return &st
}

// WaitStatus is Wait returning the status by value (no allocation).
func (r *Request) WaitStatus() Status {
	if !r.completedFlag.Load() {
		<-r.doneChan()
	}
	return r.status
}

// Payload returns the adopted payload of a RecvBytes-style request.
func (r *Request) Payload() []byte { return r.payload }

// FreeWithPayload is Free for a receiver that only borrowed the adopted
// payload: a payload staged in the transport's buffer pool (the netsim
// fast path, the TCP mesh's receive staging) goes back to the pool, so
// the caller must hold no reference into it. Anything else — a slice
// the fault plane may deliver twice — is left to the GC as Free does.
// Under the debug build tag the recycled bytes are poisoned first, so a
// retained sub-slice reads 0xDB instead of a later message.
func (r *Request) FreeWithPayload() {
	if r.pooled {
		if invariant.Enabled {
			for i := range r.payload {
				r.payload[i] = 0xDB
			}
		}
		r.comm.bufs.Put(r.payload)
	}
	r.Free()
}

// unpost removes r from the posted-receive queue and reports whether the
// caller won it. The posted queue is the single commit point for receive
// completion: a matching delivery, a Cancel and a peer-failure sweep
// each claim the request by removing it under c.mu, and only the winner
// completes it — every loser observes the request already gone and
// becomes a no-op. This makes the winner deterministic
// (c.mu acquisition order) instead of racing on Request.complete.
func (c *Comm) unpost(r *Request) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, pr := range c.posted {
		if pr == r {
			// Winning the commit point implies exclusive completion rights:
			// a request still in the posted queue cannot already be done.
			invariant.Assert(!r.isDone(), "mpi: unpost won a request that is already complete")
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			return true
		}
	}
	return false
}

// Cancel attempts to cancel the operation. Only posted-but-unmatched
// receives can be cancelled; eager sends are already complete or in
// flight. It reports whether the cancellation took effect. Cancel racing
// a matching delivery loses cleanly: whoever unposts the request first
// owns its completion.
func (r *Request) Cancel() bool {
	if r.kind != reqRecv {
		return false
	}
	if !r.comm.unpost(r) {
		return false
	}
	r.complete(Status{Source: r.src, Tag: r.tag, Cancelled: true})
	return true
}

// WaitAll blocks until every request completes.
func WaitAll(reqs ...*Request) []*Status {
	sts := make([]*Status, len(reqs))
	for i, r := range reqs {
		sts[i] = r.Wait()
	}
	return sts
}

// WaitAllInto is WaitAll writing statuses into a caller-owned slice, so
// repeated waits (a polling runtime, a collective loop) reuse one
// backing array instead of allocating per call. sts is grown only when
// its capacity is short; the (possibly reallocated) slice is returned.
func WaitAllInto(sts []Status, reqs ...*Request) []Status {
	if cap(sts) < len(reqs) {
		sts = make([]Status, len(reqs))
	}
	sts = sts[:len(reqs)]
	for i, r := range reqs {
		sts[i] = r.WaitStatus()
	}
	return sts
}

// Isend starts a non-blocking send of buf to dest with the given tag. The
// buffer is copied eagerly, so the caller may reuse it immediately; the
// request completes when the message has traversed the link and arrived
// at the destination endpoint. A message the network drops is
// retransmitted, up to maxResends times, before the request fails with
// ErrMessageDropped.
func (c *Comm) Isend(buf []byte, dest, tag int) *Request {
	checkUserTag(tag)
	return c.isend(buf, dest, tag)
}

// isend is the tag-unchecked variant used by collectives and runtime
// protocols (which use reserved tags).
func (c *Comm) isend(buf []byte, dest, tag int) *Request {
	return c.isendOpts(buf, dest, tag, false)
}

// maxResends bounds how many times the send core retransmits a message
// the network dropped before the request fails with ErrMessageDropped.
// It is the only retransmission there is: every send gets it, and the
// layers above see only the verdict. A resend goes out at once, since
// waiting improves nothing: a drop is decided per message (DropProb) or
// by the link's message index (a partition window, which each resend
// moves past). A message still dropped after this many resends is
// crossing a partition that does not heal. No measurement chose the
// value (DESIGN.md §16).
const maxResends = 64

// sendOp carries one in-flight send through the simulated network as a
// netsim.Delivery, replacing the two-to-three closures the legacy path
// allocates per message. Ops and their staging payloads are pooled; the
// request pointer is generation-fenced so an op outliving its (freed and
// reissued) request degrades to recycling its resources.
//
// The fast path is only taken when the fault plane cannot duplicate
// messages (Comm.fastSend): duplication would run Deliver twice on the
// same op, double-handing the payload to receivers.
type sendOp struct {
	c       *Comm
	req     *Request
	gen     uint64
	src     int
	dest    int
	tag     int
	payload []byte
	pooled  bool // payload came from the transport's buffer pool
	left    int  // remaining retransmissions
}

// maxSendOpPool bounds each endpoint's recycled-op list.
const maxSendOpPool = 256

func (c *Comm) newSendOp() *sendOp {
	c.sendMu.Lock()
	if n := len(c.sendOps); n > 0 {
		s := c.sendOps[n-1]
		c.sendOps[n-1] = nil
		c.sendOps = c.sendOps[:n-1]
		c.sendMu.Unlock()
		return s
	}
	c.sendMu.Unlock()
	return &sendOp{}
}

// release recycles the op. The payload must already have been handed off
// (delivered) or reclaimed (dropped) by the caller.
func (s *sendOp) release() {
	c := s.c
	*s = sendOp{}
	c.sendMu.Lock()
	if len(c.sendOps) < maxSendOpPool {
		c.sendOps = append(c.sendOps, s)
	}
	c.sendMu.Unlock()
}

// Deliver hands the payload to the destination endpoint and completes
// the send. Payload ownership transfers to the receiver (which recycles
// it after copying, or adopts it), so s must not touch it afterwards.
func (s *sendOp) Deliver() {
	n := len(s.payload)
	dc := s.c.world.comms[s.dest]
	dc.deliver(inMsg{src: s.src, tag: s.tag, payload: s.payload, pooled: s.pooled})
	s.req.completeGen(s.gen, Status{Source: s.src, Tag: s.tag, Bytes: n})
	s.release()
}

// Drop classifies a network drop. A request already complete or freed
// is left alone, one to a crashed peer fails with ErrRankFailed,
// and the rest are retransmitted while resends are left and fail with
// ErrMessageDropped after. The payload is reclaimed unless it is resent.
func (s *sendOp) Drop() {
	c := s.c
	switch {
	case s.req.gen.Load() != s.gen || s.req.isDone():
	case c.failed(s.dest):
		s.req.completeGen(s.gen, Status{Source: s.src, Tag: s.tag, Err: ErrRankFailed})
	case s.left > 0:
		s.left--
		c.resends.Load().Inc()
		c.world.net.SendMsg(s.src, s.dest, len(s.payload), s)
		return
	default:
		s.req.completeGen(s.gen, Status{Source: s.src, Tag: s.tag, Err: ErrMessageDropped})
	}
	c.bufs.PutPooled(s.payload, s.pooled)
	s.release()
}

// isendOpts is the send core: a dropped message is retransmitted up to
// maxResends times. With owned set, buf is a pool buffer the transport
// takes over instead of staging a copy (see IsendReservedOwned).
//
//hclint:hotpath
func (c *Comm) isendOpts(buf []byte, dest, tag int, owned bool) *Request {
	checkRank(dest, c.size)
	req := c.newRequest(reqSend)
	src := c.rank
	req.src, req.tag = src, tag
	c.ring.Emit(trace.EvSendPost, int64(dest), int64(tag))
	if c.failed(dest) {
		req.failPeerSend(src, tag)
		if owned {
			c.bufs.Put(buf)
		}
		return req
	}
	if c.sendHook != nil {
		c.sendHook(req, buf, dest, tag, owned)
	} else if c.fastSend {
		s := c.newSendOp()
		s.c, s.req, s.gen = c, req, req.gen.Load()
		s.src, s.dest, s.tag = src, dest, tag
		s.pooled = c.bufs != nil
		if owned {
			s.payload = buf
		} else {
			s.payload = c.bufs.Get(len(buf))
			copy(s.payload, buf)
		}
		s.left = maxResends
		c.world.net.SendMsg(src, dest, len(s.payload), s)
	} else {
		c.isendSlow(req, buf, dest, tag)
	}
	return req
}

// failPeerSend completes a send aimed at a crashed peer (slow path,
// kept out of the annotated send core).
func (r *Request) failPeerSend(src, tag int) {
	r.complete(Status{Source: src, Tag: tag, Err: ErrRankFailed})
}

// isendSlow is the send path for a fault plane that duplicates
// messages: a delivery callback can then run more than once, so each
// attempt is a closure over a private copy of buf instead of a pooled
// sendOp. A drop is classified as sendOp.Drop classifies it.
func (c *Comm) isendSlow(req *Request, buf []byte, dest, tag int) {
	payload := make([]byte, len(buf))
	copy(payload, buf)
	src, dc, net := c.rank, c.world.comms[dest], c.world.net
	var attempt func(left int)
	attempt = func(left int) {
		net.SendEx(src, dest, len(payload), func() {
			dc.deliver(inMsg{src: src, tag: tag, payload: payload})
			req.complete(Status{Source: src, Tag: tag, Bytes: len(payload)})
		}, func() {
			switch {
			case req.isDone():
			case c.failed(dest):
				req.complete(Status{Source: src, Tag: tag, Err: ErrRankFailed})
			case left > 0:
				c.resends.Load().Inc()
				attempt(left - 1)
			default:
				req.complete(Status{Source: src, Tag: tag, Err: ErrMessageDropped})
			}
		})
	}
	attempt(maxResends)
}

// Send is the blocking send: it returns when the message has arrived at
// the destination endpoint. The request is pooled internally, so
// steady-state blocking sends allocate nothing.
func (c *Comm) Send(buf []byte, dest, tag int) {
	r := c.Isend(buf, dest, tag)
	r.WaitStatus()
	r.Free()
}

// Irecv posts a non-blocking receive into buf, matching src (or
// AnySource) and tag (or AnyTag).
func (c *Comm) Irecv(buf []byte, src, tag int) *Request {
	if tag != AnyTag {
		checkUserTag(tag)
	}
	return c.irecv(buf, src, tag, false)
}

// irecv is the receive core: it matches the oldest queued unexpected
// message or posts the request.
func (c *Comm) irecv(buf []byte, src, tag int, takeAll bool) *Request {
	if src != AnySource {
		checkRank(src, c.size)
	}
	req := c.newRequest(reqRecv)
	req.src, req.tag, req.buf, req.takeAll = src, tag, buf, takeAll
	c.ring.Emit(trace.EvRecvPost, int64(src), int64(tag))
	if src != AnySource && c.failed(src) {
		// A crashed peer can never satisfy this receive; unexpected
		// messages it sent before dying were already matchable by earlier
		// receives, so fail fast instead of hanging.
		req.complete(Status{Source: src, Tag: tag, Err: ErrRankFailed})
		return req
	}

	c.mu.Lock()
	// First scan the unexpected queue in arrival order (non-overtaking).
	for i, m := range c.unexpected.live() {
		if match(src, tag, m.src, m.tag) {
			c.unexpected.take(i)
			c.mu.Unlock()
			req.fill(m)
			return req
		}
	}
	c.posted = append(c.posted, req)
	c.mu.Unlock()
	return req
}

// fill copies (or adopts) a matched message into the request and
// completes it. A pooled payload goes back to the transport's buffer
// pool once copied; an adopted payload leaves the pool's custody with
// the request, whose owner either keeps it (Free: it falls to the GC,
// never double-recycled) or hands it back (FreeWithPayload).
//
//hclint:hotpath
func (r *Request) fill(m inMsg) {
	r.comm.ring.Emit(trace.EvMatch, int64(m.src), int64(m.tag))
	var st Status
	st.Source, st.Tag = m.src, m.tag
	if r.takeAll {
		r.payload, r.pooled = m.payload, m.pooled
		st.Bytes = len(m.payload)
	} else {
		n := copy(r.buf, m.payload)
		st.Bytes = n
		st.Truncated = n < len(m.payload)
		r.comm.bufs.PutPooled(m.payload, m.pooled)
	}
	r.complete(st)
}

// IrecvAdopt posts a non-blocking receive that adopts the full payload
// whatever its size; read it with Request.Payload after completion.
func (c *Comm) IrecvAdopt(src, tag int) *Request {
	if tag != AnyTag {
		checkUserTag(tag)
	}
	return c.irecv(nil, src, tag, true)
}

// Recv is the blocking receive. It returns the completion status.
func (c *Comm) Recv(buf []byte, src, tag int) *Status {
	r := c.Irecv(buf, src, tag)
	st := r.Wait()
	r.Free()
	return st
}

// RecvBytes receives a message of unknown size, returning the full
// payload without pre-sizing a buffer.
func (c *Comm) RecvBytes(src, tag int) ([]byte, *Status) {
	r := c.irecv(nil, src, tag, true)
	st := r.Wait()
	payload := r.payload
	r.Free()
	return payload, st
}

// deliver runs in the network's delivery goroutine when a message arrives
// at this endpoint: match a posted receive or queue as unexpected.
// One-sided operations are applied here directly — the target's
// application code never participates (passive-target RMA).
func (c *Comm) deliver(m inMsg) {
	switch m.tag {
	case tagRMA:
		c.applyRMA(m.src, m.payload)
		return
	case tagRMAResp:
		c.applyGetResp(m.src, m.payload)
		return
	}
	c.mu.Lock()
	for i, req := range c.posted {
		if match(req.src, req.tag, m.src, m.tag) {
			invariant.Assert(!req.isDone(), "mpi: delivery matched a posted receive that is already complete")
			c.posted = append(c.posted[:i], c.posted[i+1:]...)
			c.mu.Unlock()
			req.fill(m)
			c.announce(m.tag)
			return
		}
	}
	c.unexpected.push(m)
	c.mu.Unlock()
	c.announce(m.tag)
}

// announce calls the NotifyReserved hook for a delivery on tag.
func (c *Comm) announce(tag int) {
	if tag < 0 {
		if fn := c.onReserved.Load(); fn != nil {
			(*fn)()
		}
	}
}

func match(wantSrc, wantTag, src, tag int) bool {
	if wantSrc != AnySource && wantSrc != src {
		return false
	}
	// AnyTag only matches user-space tags; reserved tags (collectives,
	// runtime protocols) must be matched exactly, mirroring MPI's
	// separate communication contexts.
	if wantTag == AnyTag {
		return tag >= 0 && tag < maxUserTag
	}
	return wantTag == tag
}

// Iprobe checks, without receiving, whether a matching message has
// arrived. It mirrors MPI_Iprobe and is what the UTS baseline's polling
// loop uses.
func (c *Comm) Iprobe(src, tag int) (*Status, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.unexpected.live() {
		if match(src, tag, m.src, m.tag) {
			return &Status{Source: m.src, Tag: m.tag, Bytes: len(m.payload)}, true
		}
	}
	return nil, false
}

// PendingUnexpected returns the number of queued unmatched messages
// (diagnostic).
func (c *Comm) PendingUnexpected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.unexpected.live())
}
