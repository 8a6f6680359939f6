package mpi

import "testing"

// TestPooledP2PAllocFree pins the pooled Isend/Irecv fast path at zero
// allocations per round trip once the request, send-op, and payload
// pools are warm: the tentpole contract that a steady-state message
// stream produces no garbage.
func TestPooledP2PAllocFree(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	src := make([]byte, 64)
	dst := make([]byte, 64)
	roundTrip := func() {
		r := c1.Irecv(dst, 0, 7)
		s := c0.Isend(src, 1, 7)
		r.WaitStatus()
		s.WaitStatus()
		r.Free()
		s.Free()
	}
	for i := 0; i < 300; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(500, roundTrip); avg != 0 {
		t.Errorf("pooled Isend/Irecv round trip allocated %.2f per run, want 0", avg)
	}
}

// TestRequestPoolRecycles verifies Free actually feeds newRequest (the
// pool-hit counter moves) and that recycled handles carry no stale
// state.
func TestRequestPoolRecycles(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	buf := make([]byte, 8)
	for i := 0; i < 64; i++ {
		r := c1.Irecv(buf, 0, 3)
		s := c0.Isend([]byte{byte(i)}, 1, 3)
		if st := r.Wait(); st.Err != nil || st.Bytes != 1 || buf[0] != byte(i) {
			t.Fatalf("round %d: recv status %+v buf[0]=%d", i, st, buf[0])
		}
		s.WaitStatus()
		r.Free()
		s.Free()
	}
	hits := w.Metrics().Counter("mpi_req_pool_hit").Load()
	if hits == 0 {
		t.Fatal("request pool never hit despite Free after every op")
	}
}

// TestWaitAllInto exercises the caller-owned status slice: correctness
// of the statuses and reuse of the backing array across calls.
func TestWaitAllInto(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	post := func() []*Request {
		reqs := make([]*Request, 4)
		bufs := make([][]byte, 4)
		for i := range reqs {
			bufs[i] = make([]byte, 4)
			reqs[i] = c1.Irecv(bufs[i], 0, i)
		}
		for i := range reqs {
			c0.Isend([]byte{1, 2, 3}, 1, i)
		}
		return reqs
	}
	sts := WaitAllInto(nil, post()...)
	if len(sts) != 4 {
		t.Fatalf("len(sts) = %d want 4", len(sts))
	}
	for i, st := range sts {
		if st.Err != nil || st.Bytes != 3 || st.Tag != i {
			t.Fatalf("sts[%d] = %+v", i, st)
		}
	}
	// Second round must reuse the same backing array.
	first := &sts[0]
	sts2 := WaitAllInto(sts, post()...)
	if &sts2[0] != first {
		t.Fatal("WaitAllInto reallocated a slice with sufficient capacity")
	}
	for i, st := range sts2 {
		if st.Err != nil || st.Tag != i {
			t.Fatalf("round 2 sts[%d] = %+v", i, st)
		}
	}
}
