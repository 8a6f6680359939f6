package mpi

import (
	"errors"
	"time"
)

// Sentinel errors surfaced on Status.Err when the fault plane (package
// netsim) or a runtime's deadline interferes with an operation. They
// are the substrate's analogue of MPI error classes: ErrTimeout ~
// MPI_ERR_PENDING after a bounded wait, ErrRankFailed ~ MPI_ERR_PROC_FAILED
// (ULFM), ErrMessageDropped is the transport-level loss signal, raised
// once the send core has given up retransmitting.
var (
	// ErrTimeout marks an operation that exceeded its deadline. This
	// package sets no deadlines and never returns it: it is the verdict
	// a runtime reports after withdrawing an operation itself (hcmpi's
	// OpTimeout cancels a timed-out receive, so it is no longer posted;
	// a timed-out send may or may not have been delivered).
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
// overload). A runtime's deadlines may expire meanwhile.
func (w *World) StallRank(r int, d time.Duration) {
	checkRank(r, w.n)
	w.net.StallRank(r, d)
}
