package mpi

import (
	"runtime"
	"testing"
)

// Allocation pins for the TCP transport, mirroring alloc_test.go's
// netsim pins. All endpoints live in one process and are driven from the
// test goroutine; heartbeats are disabled so the detector's ticker never
// allocates inside a measured window. Waits poll with TestStatus +
// Gosched — WaitStatus lazily creates a done channel, which would charge
// an allocation to the transport that is really the waiter's.

func tcpAllocMesh(t *testing.T, n int) []*Comm {
	t.Helper()
	comms, closers := bringUp(t, n, func(int) []DistOption {
		return []DistOption{func(c *distConfig) { c.hbInterval = 0 }}
	})
	t.Cleanup(func() {
		for _, cl := range closers {
			cl.Close()
		}
	})
	return comms
}

func spinWait(r *Request) Status {
	for {
		if st, ok := r.TestStatus(); ok {
			return st
		}
		runtime.Gosched()
	}
}

// TestTCPLoopbackAllocFree pins the dest==rank loopback path at zero
// allocations steady-state: the payload copy comes from the mesh's
// buffer pool and the request from the comm's request pool.
func TestTCPLoopbackAllocFree(t *testing.T) {
	c := tcpAllocMesh(t, 2)[0]
	src := make([]byte, 64)
	dst := make([]byte, 64)
	roundTrip := func() {
		r := c.Irecv(dst, c.Rank(), 7)
		s := c.Isend(src, c.Rank(), 7)
		spinWait(r)
		spinWait(s)
		r.Free()
		s.Free()
	}
	for i := 0; i < 300; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(500, roundTrip); avg != 0 {
		t.Errorf("TCP loopback round trip allocated %.2f per run, want 0", avg)
	}
}

// TestTCPSendEnqueueAllocs pins the framed send path at ≤1 allocation
// per enqueue: pooled request + pooled staging payload, with at most the
// outFrame's channel hand-off charged to the caller.
func TestTCPSendEnqueueAllocs(t *testing.T) {
	comms := tcpAllocMesh(t, 2)
	c0, c1 := comms[0], comms[1]
	src := make([]byte, 64)
	dst := make([]byte, 64)
	roundTrip := func() {
		r := c1.Irecv(dst, 0, 7)
		s := c0.Isend(src, 1, 7)
		spinWait(r)
		spinWait(s)
		r.Free()
		s.Free()
	}
	for i := 0; i < 50; i++ {
		roundTrip()
	}
	// The measured window covers the whole wire round trip — enqueue,
	// writer flush, reader staging, match — so the enqueue-path pin of
	// ≤1 holds only if everything else is allocation-free.
	if avg := testing.AllocsPerRun(100, roundTrip); avg > 1 {
		t.Errorf("TCP wire round trip allocated %.2f per run, want <= 1", avg)
	}
}

// TestTCPPooledReceiveAllocFree pins the receive path alone at zero
// steady-state allocations: with sends prepaid outside the measured
// window, posting and completing the matching Irecv must not allocate
// (payloads are staged in and recycled to the buffer pool).
func TestTCPPooledReceiveAllocFree(t *testing.T) {
	comms := tcpAllocMesh(t, 2)
	c0, c1 := comms[0], comms[1]
	src := make([]byte, 64)
	dst := make([]byte, 64)
	send := func() {
		s := c0.Isend(src, 1, 7)
		spinWait(s)
		s.Free()
	}
	recv := func() {
		r := c1.Irecv(dst, 0, 7)
		spinWait(r)
		r.Free()
	}
	for i := 0; i < 50; i++ {
		send()
		recv()
	}
	if avg := testing.AllocsPerRun(100, func() {
		send() // prepays the matching message; the send pin lives above
		recv()
	}); avg > 1 {
		t.Errorf("TCP send+recv pair allocated %.2f per run, want <= 1 (receive side must be 0)", avg)
	}
}
