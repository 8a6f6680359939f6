package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"hcmpi/internal/netsim"
	"hcmpi/internal/trace"
)

// chaosSeed keys every seeded schedule in this file. A failing run is
// replayed exactly by re-running with the seed it logs.
const chaosSeed = 0xC4A05

// Chaos tests at the raw MPI layer: drops surface ErrMessageDropped,
// partitions surface ErrTimeout, crashed ranks surface ErrRankFailed —
// and never a hang.

func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
}

// With the zero-valued fault config the fault plane stays off entirely:
// the instant-delivery fast path is kept and no fault counters move.
func TestZeroFaultsAreFree(t *testing.T) {
	if (netsim.Faults{}).Enabled() {
		t.Fatal("zero Faults reports Enabled")
	}
	w := NewWorld(2, WithFaults(netsim.Faults{}))
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.Isend([]byte("x"), 1, 0)
	buf := make([]byte, 1)
	if st := c1.Recv(buf, 0, 0); st.Err != nil || st.Bytes != 1 {
		t.Fatalf("recv under zero faults: %+v", st)
	}
	st := w.Net().Stats()
	if st.Dropped != 0 || st.Duplicated != 0 || st.Spikes != 0 {
		t.Fatalf("zero faults moved fault counters: %+v", st)
	}
}

// A fully lossy link completes the send request with ErrMessageDropped
// (the drop notification) instead of leaving it forever pending.
func TestDroppedSendSurfacesError(t *testing.T) {
	skipShort(t)
	w := NewWorld(2, WithFaults(netsim.Faults{Seed: chaosSeed, DropProb: 1.0}))
	defer w.Close()
	st := w.Comm(0).Isend([]byte("doomed"), 1, 3).Wait()
	if !errors.Is(st.Err, ErrMessageDropped) {
		t.Fatalf("seed=%#x: want ErrMessageDropped, got st=%+v", chaosSeed, st)
	}
}

// Collectives ride the retransmitting send path, so a 10% lossy fabric
// slows them down but cannot hang or corrupt them.
func TestCollectivesCompleteUnderDrops(t *testing.T) {
	skipShort(t)
	w := NewWorld(4, WithFaults(netsim.Faults{Seed: chaosSeed, DropProb: 0.10}))
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				c.Barrier()
				got := DecodeInt64s(c.Allreduce(EncodeInt64s([]int64{int64(c.Rank() + 1)}), Int64, OpSum))
				if got[0] != 10 {
					t.Errorf("seed=%#x: allreduce iter %d on rank %d = %d, want 10", chaosSeed, iter, c.Rank(), got[0])
				}
			}
		}(w.Comm(r))
	}
	wg.Wait()
	w.Close()
	if st := w.Net().Stats(); st.Dropped == 0 {
		t.Fatalf("seed=%#x: chaos run dropped nothing (fault plane inactive?): %+v", chaosSeed, st)
	}
}

// A partitioned link fails the send with ErrMessageDropped once every
// resend is dropped, and leaves the receive across it unmatched — not
// failed, not hung — until Cancel withdraws it. (Turning that wait into
// ErrTimeout is hcmpi's OpTimeout; TestChaosPartitionTimesOut there.)
func TestPartitionedLinkTimesOut(t *testing.T) {
	skipShort(t)
	w := NewWorld(2, WithFaults(netsim.Faults{
		Seed:       chaosSeed,
		Partitions: []netsim.Partition{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}},
	}))
	defer w.Close()

	start := time.Now()
	recv := w.Comm(1).Irecv(make([]byte, 4), 0, 1)
	sendSt := w.Comm(0).Isend([]byte("void"), 1, 1).Wait()
	if !errors.Is(sendSt.Err, ErrMessageDropped) {
		t.Fatalf("seed=%#x: send across partition: st=%+v", chaosSeed, sendSt)
	}
	time.Sleep(30 * time.Millisecond)
	if st, ok := recv.Test(); ok {
		t.Fatalf("seed=%#x: recv across partition completed: %+v", chaosSeed, st)
	}
	if !recv.Cancel() {
		t.Fatalf("seed=%#x: Cancel lost an unmatched recv", chaosSeed)
	}
	if st := recv.Wait(); !st.Cancelled || st.Err != nil {
		t.Fatalf("seed=%#x: cancelled recv across partition: %+v", chaosSeed, st)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("seed=%#x: withdrawal took %v", chaosSeed, d)
	}
}

// A crashed rank fails every pending exact-source receive against it,
// every in-flight send to it, and every later operation naming it —
// always with ErrRankFailed, never a hang. AnySource receives survive and
// can still be matched by live ranks.
func TestCrashedRankFailsPending(t *testing.T) {
	skipShort(t)
	w := NewWorld(3)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)

	buf := make([]byte, 8)
	pending := c0.Irecv(buf, 2, 5) // satisfiable only by rank 2
	anybuf := make([]byte, 8)
	anyReq := c0.Irecv(anybuf, AnySource, 6) // must survive the crash

	w.FailRank(2)

	if st := pending.Wait(); !errors.Is(st.Err, ErrRankFailed) {
		t.Fatalf("pending recv from crashed rank: %v", st.Err)
	}
	if st := c0.Isend([]byte("late"), 2, 5).Wait(); !errors.Is(st.Err, ErrRankFailed) {
		t.Fatalf("send to crashed rank: %v", st.Err)
	}
	if st := c0.Irecv(buf, 2, 5).Wait(); !errors.Is(st.Err, ErrRankFailed) {
		t.Fatalf("recv from crashed rank posted after crash: %v", st.Err)
	}
	c1.Isend([]byte("alive"), 0, 6)
	if st := anyReq.Wait(); st.Err != nil || st.Source != 1 {
		t.Fatalf("AnySource recv after crash: st=%+v", st)
	}
}

// A collective whose root crashes while the others are inside it still
// finishes on the survivors — the schedule feeds every round they wait
// on — but with the errored round's ErrRankFailed in its status instead
// of a result that silently left a rank out.
func TestCrashedRankFailsCollective(t *testing.T) {
	w := NewWorld(3)
	defer w.Close()
	s1 := start(w.Comm(1), func(s *Schedule) { s.Allreduce(EncodeInt64(1), Int64, OpSum) })
	s2 := start(w.Comm(2), func(s *Schedule) { s.Allreduce(EncodeInt64(2), Int64, OpSum) })
	w.FailRank(0)
	for r, s := range []*Schedule{s1, s2} {
		if st := s.Wait(); !errors.Is(st.Err, ErrRankFailed) || !errors.Is(s.Err(), ErrRankFailed) {
			t.Errorf("rank %d: allreduce with rank 0 crashed: %+v, want ErrRankFailed", r+1, st)
		}
	}
}

// A stalled (slow) rank delays traffic but loses nothing: a receive
// completes normally once the stall window passes, well inside the
// test's own bound.
func TestStalledRankRecovers(t *testing.T) {
	skipShort(t)
	w := NewWorld(2)
	defer w.Close()
	w.StallRank(1, 30*time.Millisecond)
	start := time.Now()
	w.Comm(0).Isend([]byte("slow"), 1, 2)
	buf := make([]byte, 4)
	r := w.Comm(1).Irecv(buf, 0, 2)
	for !r.isDone() {
		if time.Since(start) > 5*time.Second {
			r.Cancel()
			t.Fatal("recv from stalled rank still pending after 5s")
		}
		time.Sleep(time.Millisecond)
	}
	if st := r.Wait(); st.Err != nil || st.Bytes != 4 {
		t.Fatalf("recv from stalled rank: st=%+v", st)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("stall did not delay delivery: %v", d)
	}
}

// Cancel racing a matching delivery has exactly one deterministic winner
// (whoever unposts the request under the endpoint lock); the loser is a
// no-op. The request never completes twice, never loses the message AND
// reports cancelled, and never carries an error.
func TestCancelDeliverRaceHasOneWinner(t *testing.T) {
	w := NewWorld(2)
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	iters := 500
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		buf := make([]byte, 1)
		r := c0.Irecv(buf, 1, 4)
		done := make(chan bool, 1)
		go func() { done <- r.Cancel() }()
		c1.Isend([]byte{9}, 0, 4)
		cancelled := <-done
		st := r.Wait()
		if st.Err != nil {
			t.Fatalf("iter %d: race produced error %v", i, st.Err)
		}
		if cancelled != st.Cancelled {
			t.Fatalf("iter %d: Cancel()=%v but status %+v", i, cancelled, st)
		}
		if !st.Cancelled && (st.Bytes != 1 || buf[0] != 9) {
			t.Fatalf("iter %d: delivery won but message lost: %+v buf=%v", i, st, buf)
		}
		if st.Cancelled {
			// The message went unclaimed; drain it so iterations stay
			// independent.
			c0.Recv(buf, 1, 4)
		}
	}
}

// A user send under message loss completes without an error on both
// netsim send paths — the pooled sendOp (no duplication) and the closure
// path of a duplicating fault plane — because the send core retransmits
// every dropped message, and every resend is counted on the sender's
// counter: one per drop, since no sender gives up here.
func TestIsendDropRetransmits(t *testing.T) {
	skipShort(t)
	const msgs = 200
	for _, dup := range []float64{0, 0.2} {
		w := NewWorld(2, WithFaults(netsim.Faults{Seed: chaosSeed, DropProb: 0.3, DupProb: dup}))
		c0, c1 := w.Comm(0), w.Comm(1)
		if c0.fastSend != (dup == 0) {
			t.Fatalf("DupProb %v: pooled send path taken = %v", dup, c0.fastSend)
		}
		var resends trace.Counter
		c0.CountResends(&resends)
		buf := make([]byte, 8)
		for i := 0; i < msgs; i++ {
			binary.LittleEndian.PutUint64(buf, uint64(i))
			if st := c0.Isend(buf, 1, 5).WaitStatus(); st.Err != nil {
				t.Fatalf("seed=%#x DupProb %v: send %d: %v", chaosSeed, dup, i, st.Err)
			}
		}
		if dup == 0 {
			for i := 0; i < msgs; i++ {
				if st := c1.Recv(buf, 0, 5); st.Err != nil || binary.LittleEndian.Uint64(buf) != uint64(i) {
					t.Fatalf("seed=%#x: recv %d: %+v, got message %d", chaosSeed, i, st, binary.LittleEndian.Uint64(buf))
				}
			}
		}
		w.Close()
		dropped := w.Net().Stats().Dropped
		if dropped == 0 || resends.Load() != dropped {
			t.Errorf("seed=%#x DupProb %v: %d messages dropped, %d resends counted", chaosSeed, dup, dropped, resends.Load())
		}
	}
}

// An owned send whose first copy is dropped is delivered by the send
// core's retransmission, with the sender's own buffer (no copy), and
// that buffer returns to the pool once the receiver gives the payload
// back. The sender's counter shows exactly the one resend.
func TestOwnedSendDropRetransmitsSameBuffer(t *testing.T) {
	const tag = -78 // a spare reserved tag
	// The first message on the 0→1 link falls into a partition window.
	w := NewWorld(2, WithFaults(netsim.Faults{Partitions: []netsim.Partition{{Src: 0, Dst: 1, From: 0, To: 1}}}))
	defer w.Close()
	c0, c1 := w.Comm(0), w.Comm(1)
	var resends trace.Counter
	c0.CountResends(&resends)
	buf := c0.Buffers().Get(100)
	copy(buf, "the same bytes")
	r := c0.IsendReservedOwned(buf, 1, tag)
	if st := r.WaitStatus(); st.Err != nil {
		t.Fatalf("owned send across a one-message partition: %+v", st)
	}
	r.Free()
	got := c1.IrecvReserved(0, tag)
	if st := got.WaitStatus(); st.Err != nil || !bytes.HasPrefix(got.Payload(), []byte("the same bytes")) {
		t.Fatalf("receive: %+v, delivered %q", st, got.Payload())
	}
	if &got.Payload()[0] != &buf[0] {
		t.Error("the owned buffer was copied on the netsim fast path")
	}
	got.FreeWithPayload()
	if back := c0.Buffers().Get(100); &back[0] != &buf[0] {
		t.Error("the borrowed payload did not return to the pool")
	}
	if n := resends.Load(); n != 1 {
		t.Errorf("%d resends counted, want 1", n)
	}
}
