package mpi

import (
	"errors"
	"time"
)

// Sentinel errors surfaced on Status.Err when the fault plane (package
// netsim) or a per-request deadline interferes with an operation. They
// are the substrate's analogue of MPI error classes: ErrTimeout ~
// MPI_ERR_PENDING after a bounded wait, ErrRankFailed ~ MPI_ERR_PROC_FAILED
// (ULFM), ErrMessageDropped is the transport-level loss signal, raised
// once the send core has given up retransmitting.
var (
	// ErrTimeout marks an operation that exceeded its deadline. The
	// operation is dead: a timed-out receive has been withdrawn from the
	// posted queue; a timed-out send may or may not have been delivered.
	ErrTimeout = errors.New("mpi: operation timed out")
	// ErrRankFailed marks an operation against a crashed peer. All
	// pending and future operations that can only be satisfied by the
	// failed rank complete with this error.
	ErrRankFailed = errors.New("mpi: peer rank failed")
	// ErrMessageDropped marks a send whose message the network dropped
	// on the first attempt and on every one of the send core's maxResends
	// retransmissions: in practice, a partition that does not heal.
	// Resending is safe: the payload was never delivered.
	ErrMessageDropped = errors.New("mpi: message dropped by network")
)

// failed reports whether peer rank r is known to have crashed.
func (c *Comm) failed(r int) bool { return c.failedFn != nil && c.failedFn(r) }

// SetDeadline sets the default per-operation deadline applied to every
// subsequent Isend/Irecv-family call on this endpoint; 0 (the default)
// disables it. Explicit IsendTimeout/IrecvTimeout deadlines take
// precedence. A deadline turns any potential hang into a Status carrying
// ErrTimeout.
func (c *Comm) SetDeadline(d time.Duration) { c.deadline.Store(int64(d)) }

// IsendTimeout is Isend with a per-request deadline: if the message has
// not arrived at the destination endpoint within d, the request completes
// with ErrTimeout (the message itself may still be in flight).
func (c *Comm) IsendTimeout(buf []byte, dest, tag int, d time.Duration) *Request {
	checkUserTag(tag)
	return c.isendOpts(buf, dest, tag, false, d)
}

// IrecvTimeout is Irecv with a per-request deadline: if no matching
// message arrives within d, the receive is withdrawn and completes with
// ErrTimeout.
func (c *Comm) IrecvTimeout(buf []byte, src, tag int, d time.Duration) *Request {
	if tag != AnyTag {
		checkUserTag(tag)
	}
	return c.irecvOpts(buf, src, tag, false, d)
}

// WaitErr blocks until the operation completes and surfaces its error, if
// any, alongside the status.
func (r *Request) WaitErr() (*Status, error) {
	st := r.Wait()
	return st, st.Err
}

// WaitTimeout waits up to d for completion; on expiry it returns
// ErrTimeout without completing (or otherwise disturbing) the request.
func (r *Request) WaitTimeout(d time.Duration) (*Status, error) {
	if st, ok := r.Test(); ok {
		return st, st.Err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.doneChan():
		st := r.status
		return &st, st.Err
	case <-t.C:
		return nil, ErrTimeout
	}
}

// WaitAllErr blocks until every request completes and returns the first
// error among them (statuses are returned for all, so callers can
// attribute failures).
func WaitAllErr(reqs ...*Request) ([]*Status, error) {
	sts := WaitAll(reqs...)
	for _, st := range sts {
		if st.Err != nil {
			return sts, st.Err
		}
	}
	return sts, nil
}

// arm installs a deadline on the request; no-op for d <= 0 or an already
// completed request. The expiry closure snapshots the request's identity
// (generation, kind, envelope) at arm time: with pooled requests a timer
// can outlive its incarnation, and the snapshot both fences the stale
// firing (generation check) and keeps it from reading fields the next
// incarnation is rewriting.
func (r *Request) arm(d time.Duration) {
	if d <= 0 {
		return
	}
	r.mu.Lock()
	if !r.completed {
		gen := r.gen.Load()
		kind, src, tag := r.kind, r.src, r.tag
		r.timer = time.AfterFunc(d, func() { r.expireGen(gen, kind, src, tag) })
	}
	r.mu.Unlock()
}

// expireGen is the deadline path. For receives, the posted queue is the
// commit point: only the caller that unposts the request may complete it,
// so a deadline racing a matching delivery (or a Cancel) has exactly one
// deterministic winner and the loser is a no-op. For sends, complete's
// single-assignment makes the race benign the same way; the generation
// fence additionally voids timers that outlived a Free.
func (r *Request) expireGen(gen uint64, kind reqKind, src, tag int) {
	if kind == reqRecv && !r.comm.unpostGen(r, gen) {
		return
	}
	r.completeGen(gen, Status{Source: src, Tag: tag, Err: ErrTimeout})
}

// failPeer completes, with ErrRankFailed, every posted receive that only
// rank failed can satisfy. AnySource receives stay posted — another rank
// can still match them.
func (c *Comm) failPeer(failed int) {
	c.mu.Lock()
	var victims []*Request
	keep := c.posted[:0]
	for _, pr := range c.posted {
		if pr.src == failed {
			victims = append(victims, pr)
		} else {
			keep = append(keep, pr)
		}
	}
	c.posted = keep
	c.mu.Unlock()
	for _, pr := range victims {
		pr.complete(Status{Source: pr.src, Tag: pr.tag, Err: ErrRankFailed})
	}
}

// FailRank simulates the fail-stop crash of rank r: the network
// blackholes all of its traffic from now on, every exact-source receive
// posted against it (on any rank) completes with ErrRankFailed, and
// future sends to or receives from it fail immediately. In-flight sends
// to r complete with ErrRankFailed when the network drops them.
func (w *World) FailRank(r int) {
	checkRank(r, w.n)
	w.net.CrashRank(r)
	for _, c := range w.comms {
		c.failPeer(r)
	}
}

// StallRank delays all network traffic touching rank r by d from now,
// modelling a temporarily unresponsive rank (GC pause, OS jitter,
// overload). Operations under deadlines may time out meanwhile.
func (w *World) StallRank(r int, d time.Duration) {
	checkRank(r, w.n)
	w.net.StallRank(r, d)
}
