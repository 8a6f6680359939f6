package mpi_test

// Cross-transport conformance suite: one corpus of point-to-point,
// wildcard/non-overtaking, collective, and one-sided tests, executed
// over every backend mpitest knows (the in-process netsim world and the
// real TCP loopback mesh). Every future PR that touches either
// transport proves, through this suite, that the two still behave
// identically. The hcmpi comm-task and DDDF corpora run the same
// backends from their own packages.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hcmpi/internal/mpi"
	"hcmpi/internal/mpi/mpitest"
)

// conformanceCase is one SPMD body of the corpus; bodies report
// failures with t.Errorf (never Fatal — they run off the test
// goroutine).
type conformanceCase struct {
	name  string
	ranks int
	body  func(t *testing.T, c *mpi.Comm)
}

func conformanceCorpus() []conformanceCase {
	return []conformanceCase{
		{"P2P/SendRecv", 2, confSendRecv},
		{"P2P/RecvBeforeSend", 2, confRecvBeforeSend},
		{"P2P/NonOvertaking", 2, confNonOvertaking},
		{"P2P/Wildcards", 3, confWildcards},
		{"P2P/TagSelectivity", 2, confTagSelectivity},
		{"P2P/Truncation", 2, confTruncation},
		{"P2P/VariableSize", 2, confVariableSize},
		{"P2P/SelfSend", 2, confSelfSend},
		{"P2P/IsendIrecvTestWait", 2, confIsendIrecvTestWait},
		{"P2P/CancelPostedRecv", 2, confCancelPostedRecv},
		{"P2P/ProbeIprobe", 2, confProbeIprobe},
		{"P2P/ReservedTags", 2, confReservedTags},
		{"Coll/Barrier", 4, confBarrier},
		{"Coll/BcastAllRoots", 4, confBcastAllRoots},
		{"Coll/ReduceAllreduce", 4, confReduceAllreduce},
		{"Coll/Scan", 4, confScan},
		{"Coll/ScatterGather", 4, confScatterGather},
		{"Coll/Allgather", 4, confAllgather},
		{"Coll/MixedWithP2P", 3, confMixedWithP2P},
		{"RMA/PutFence", 3, confRMAPutFence},
		{"RMA/Get", 2, confRMAGet},
		{"RMA/Accumulate", 3, confRMAAccumulate},
	}
}

// TestConformance runs the full corpus over every backend.
func TestConformance(t *testing.T) {
	for _, b := range mpitest.Backends() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, tc := range conformanceCorpus() {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					b.Run(t, tc.ranks, func(c *mpi.Comm) { tc.body(t, c) })
				})
			}
		})
	}
}

func confSendRecv(t *testing.T, c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		c.Send([]byte("conformance"), 1, 9)
	case 1:
		payload, st := c.RecvBytes(0, 9)
		if string(payload) != "conformance" || st.Source != 0 || st.Tag != 9 {
			t.Errorf("got %q %+v", payload, st)
		}
	}
}

func confRecvBeforeSend(t *testing.T, c *mpi.Comm) {
	// The receive is posted before the message exists on rank 0's side;
	// symmetric test of the unexpected queue when the send wins the race.
	switch c.Rank() {
	case 0:
		buf := make([]byte, 3)
		r := c.Irecv(buf, 1, 4)
		c.Send([]byte{1}, 1, 3) // release rank 1
		st := r.WaitStatus()
		if st.Err != nil || !bytes.Equal(buf, []byte{7, 8, 9}) {
			t.Errorf("status %+v buf %v", st, buf)
		}
		r.Free()
	case 1:
		buf := make([]byte, 1)
		c.Recv(buf, 0, 3)
		c.Send([]byte{7, 8, 9}, 0, 4)
	}
}

func confNonOvertaking(t *testing.T, c *mpi.Comm) {
	const msgs = 300
	switch c.Rank() {
	case 0:
		for i := 0; i < msgs; i++ {
			c.Isend([]byte{byte(i)}, 1, 3)
		}
	case 1:
		buf := make([]byte, 1)
		for i := 0; i < msgs; i++ {
			c.Recv(buf, 0, 3)
			if buf[0] != byte(i) {
				t.Errorf("overtaking at %d: got %d", i, buf[0])
				return
			}
		}
	}
}

func confWildcards(t *testing.T, c *mpi.Comm) {
	if c.Rank() == 2 {
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			_, st := c.RecvBytes(mpi.AnySource, mpi.AnyTag)
			seen[st.Source] = true
		}
		if !seen[0] || !seen[1] {
			t.Errorf("sources %v", seen)
		}
		return
	}
	c.Send([]byte{byte(c.Rank())}, 2, c.Rank()+10)
}

func confTagSelectivity(t *testing.T, c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		c.Send([]byte{1}, 1, 7)
		c.Send([]byte{2}, 1, 8)
	case 1:
		buf := make([]byte, 1)
		// Receive the later tag first: matching is by tag, not arrival.
		c.Recv(buf, 0, 8)
		if buf[0] != 2 {
			t.Errorf("tag 8 got %d", buf[0])
		}
		c.Recv(buf, 0, 7)
		if buf[0] != 1 {
			t.Errorf("tag 7 got %d", buf[0])
		}
	}
}

func confTruncation(t *testing.T, c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		c.Send([]byte{1, 2, 3, 4, 5}, 1, 2)
	case 1:
		buf := make([]byte, 3)
		st := c.Recv(buf, 0, 2)
		if !st.Truncated || st.Bytes != 3 || !bytes.Equal(buf, []byte{1, 2, 3}) {
			t.Errorf("status %+v buf %v", st, buf)
		}
	}
}

func confVariableSize(t *testing.T, c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		for n := 0; n <= 1<<17; n = n*4 + 1 {
			msg := make([]byte, n)
			for i := range msg {
				msg[i] = byte(i * 31)
			}
			c.Send(msg, 1, 5)
		}
	case 1:
		for n := 0; n <= 1<<17; n = n*4 + 1 {
			payload, st := c.RecvBytes(0, 5)
			if st.Bytes != n || len(payload) != n {
				t.Errorf("size %d: got %d bytes", n, st.Bytes)
				return
			}
			for i := range payload {
				if payload[i] != byte(i*31) {
					t.Errorf("size %d: corrupt at %d", n, i)
					return
				}
			}
		}
	}
}

func confSelfSend(t *testing.T, c *mpi.Comm) {
	// Loopback must copy: mutate the source buffer right after Isend.
	src := []byte{42}
	c.Isend(src, c.Rank(), 1)
	src[0] = 99 //hclint:allow deliberate: asserts the loopback transport copies the buffer at post time
	buf := make([]byte, 1)
	c.Recv(buf, c.Rank(), 1)
	if buf[0] != 42 {
		t.Errorf("self-send aliased the caller's buffer: got %d", buf[0])
	}
}

func confIsendIrecvTestWait(t *testing.T, c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		r := c.Isend([]byte{5}, 1, 1)
		st := r.WaitStatus()
		if st.Err != nil {
			t.Errorf("send status %+v", st)
		}
		r.Free()
	case 1:
		buf := make([]byte, 1)
		r := c.Irecv(buf, 0, 1)
		for {
			if st, ok := r.TestStatus(); ok {
				if st.Err != nil || st.Bytes != 1 || buf[0] != 5 {
					t.Errorf("recv status %+v buf %v", st, buf)
				}
				break
			}
			runtime.Gosched()
		}
		r.Free()
	}
}

func confCancelPostedRecv(t *testing.T, c *mpi.Comm) {
	if c.Rank() != 1 {
		return
	}
	buf := make([]byte, 1)
	req := c.Irecv(buf, 0, 0)
	if !req.Cancel() {
		t.Error("Cancel of posted recv failed")
	}
	if st := req.Wait(); !st.Cancelled {
		t.Errorf("status = %+v, want cancelled", st)
	}
	if req.Cancel() {
		t.Error("second Cancel succeeded")
	}
}

func confProbeIprobe(t *testing.T, c *mpi.Comm) {
	switch c.Rank() {
	case 0:
		c.Send([]byte{1, 2, 3}, 1, 5)
	case 1:
		// Poll until the message has arrived, bounded so a lost
		// message fails instead of hanging.
		var st *mpi.Status
		for deadline := time.Now().Add(10 * time.Second); ; {
			var ok bool
			if st, ok = c.Iprobe(0, 5); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Error("Iprobe found nothing within 10s")
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
		if st.Bytes != 3 {
			t.Errorf("iprobe status %+v", st)
		}
		if _, ok := c.Iprobe(mpi.AnySource, 5); !ok {
			t.Error("second Iprobe found nothing")
		}
		buf := make([]byte, 3)
		c.Recv(buf, 0, 5)
		if _, ok := c.Iprobe(mpi.AnySource, 5); ok {
			t.Error("message still probeable after Recv")
		}
	}
}

func confReservedTags(t *testing.T, c *mpi.Comm) {
	const tag = -77
	switch c.Rank() {
	case 0:
		c.SendReserved([]byte("runtime-protocol"), 1, tag)
		// AnyTag must not match reserved traffic.
		c.Send([]byte{1}, 1, 0)
	case 1:
		buf := make([]byte, 1)
		c.Recv(buf, 0, mpi.AnyTag)
		if buf[0] != 1 {
			t.Errorf("AnyTag matched reserved payload: %v", buf)
		}
		r := c.IrecvReserved(0, tag)
		st := r.WaitStatus()
		if st.Err != nil || string(r.Payload()) != "runtime-protocol" {
			t.Errorf("reserved recv %+v %q", st, r.Payload())
		}
		r.Free()
	}
}

func confBarrier(t *testing.T, c *mpi.Comm) {
	// Everyone increments before the barrier; after it, every rank must
	// observe the full count (checked via a second exchange).
	c.Barrier()
	sum := mpi.DecodeInt64(c.Allreduce(mpi.EncodeInt64(1), mpi.Int64, mpi.OpSum))
	if sum != int64(c.Size()) {
		t.Errorf("rank %d: allreduce after barrier = %d", c.Rank(), sum)
	}
	c.Barrier()
}

func confBcastAllRoots(t *testing.T, c *mpi.Comm) {
	for root := 0; root < c.Size(); root++ {
		buf := make([]byte, 8)
		if c.Rank() == root {
			copy(buf, mpi.EncodeInt64(int64(1000+root)))
		}
		c.Bcast(buf, root)
		if got := mpi.DecodeInt64(buf); got != int64(1000+root) {
			t.Errorf("rank %d root %d: bcast %d", c.Rank(), root, got)
		}
	}
}

func confReduceAllreduce(t *testing.T, c *mpi.Comm) {
	n := int64(c.Size())
	res := c.Reduce(mpi.EncodeInt64(int64(c.Rank()+1)), mpi.Int64, mpi.OpSum, 0)
	if c.Rank() == 0 {
		if got := mpi.DecodeInt64(res); got != n*(n+1)/2 {
			t.Errorf("reduce sum %d", got)
		}
	} else if res != nil {
		t.Errorf("rank %d: non-root reduce returned %v", c.Rank(), res)
	}
	for _, op := range []struct {
		op   mpi.Op
		want int64
	}{{mpi.OpSum, n * (n + 1) / 2}, {mpi.OpMax, n}, {mpi.OpMin, 1}} {
		got := mpi.DecodeInt64(c.Allreduce(mpi.EncodeInt64(int64(c.Rank()+1)), mpi.Int64, op.op))
		if got != op.want {
			t.Errorf("rank %d allreduce = %d want %d", c.Rank(), got, op.want)
		}
	}
}

func confScan(t *testing.T, c *mpi.Comm) {
	got := mpi.DecodeInt64(c.Scan(mpi.EncodeInt64(int64(c.Rank()+1)), mpi.Int64, mpi.OpSum))
	r := int64(c.Rank() + 1)
	if want := r * (r + 1) / 2; got != want {
		t.Errorf("rank %d scan = %d want %d", c.Rank(), got, want)
	}
}

func confScatterGather(t *testing.T, c *mpi.Comm) {
	const root = 1
	var parts [][]byte
	if c.Rank() == root {
		parts = make([][]byte, c.Size())
		for r := range parts {
			parts[r] = []byte(fmt.Sprintf("part-%d", r))
		}
	}
	mine := c.Scatter(parts, root)
	if want := fmt.Sprintf("part-%d", c.Rank()); string(mine) != want {
		t.Errorf("rank %d scatter got %q want %q", c.Rank(), mine, want)
	}
	back := c.Gather(mine, root)
	if c.Rank() == root {
		for r := range back {
			if want := fmt.Sprintf("part-%d", r); string(back[r]) != want {
				t.Errorf("gather[%d] = %q want %q", r, back[r], want)
			}
		}
	} else if back != nil {
		t.Errorf("rank %d: non-root gather returned %v", c.Rank(), back)
	}
}

func confAllgather(t *testing.T, c *mpi.Comm) {
	out := c.Allgather(mpi.EncodeInt64(int64(c.Rank() * 3)))
	for r := 0; r < c.Size(); r++ {
		if got := mpi.DecodeInt64(out[r]); got != int64(r*3) {
			t.Errorf("rank %d allgather[%d] = %d", c.Rank(), r, got)
		}
	}
}

func confMixedWithP2P(t *testing.T, c *mpi.Comm) {
	// Interleave user-tag traffic with collectives: the reserved
	// collective tag space must never cross-match user messages.
	next := (c.Rank() + 1) % c.Size()
	prev := (c.Rank() + c.Size() - 1) % c.Size()
	r := c.IrecvAdopt(prev, 6)
	c.Isend([]byte{byte(c.Rank())}, next, 6)
	c.Barrier()
	sum := mpi.DecodeInt64(c.Allreduce(mpi.EncodeInt64(int64(c.Rank())), mpi.Int64, mpi.OpSum))
	st := r.WaitStatus()
	if st.Err != nil || r.Payload()[0] != byte(prev) {
		t.Errorf("rank %d ring recv %+v", c.Rank(), st)
	}
	r.Free()
	if want := int64(c.Size() * (c.Size() - 1) / 2); sum != want {
		t.Errorf("rank %d mixed allreduce = %d want %d", c.Rank(), sum, want)
	}
}

func confRMAPutFence(t *testing.T, c *mpi.Comm) {
	buf := make([]byte, c.Size())
	win := c.WinCreate(buf)
	for target := 0; target < c.Size(); target++ {
		win.Put([]byte{byte(c.Rank() + 1)}, target, c.Rank())
	}
	win.Fence()
	for r := 0; r < c.Size(); r++ {
		if buf[r] != byte(r+1) {
			t.Errorf("rank %d buf[%d] = %d", c.Rank(), r, buf[r])
		}
	}
	c.Barrier()
}

func confRMAGet(t *testing.T, c *mpi.Comm) {
	buf := make([]byte, 4)
	if c.Rank() == 1 {
		copy(buf, []byte{9, 8, 7, 6})
	}
	win := c.WinCreate(buf)
	win.Fence()
	if c.Rank() == 0 {
		r := win.Get(4, 1, 0)
		st := r.WaitStatus()
		if st.Err != nil || !bytes.Equal(r.Payload(), []byte{9, 8, 7, 6}) {
			t.Errorf("get %+v payload %v", st, r.Payload())
		}
		// No Free: the window's epoch tracking still holds this request
		// until the closing Fence waits on it.
	}
	win.Fence()
	c.Barrier()
}

func confRMAAccumulate(t *testing.T, c *mpi.Comm) {
	buf := mpi.EncodeInt64(0)
	win := c.WinCreate(buf)
	win.Fence()
	win.Accumulate(mpi.EncodeInt64(int64(c.Rank()+1)), mpi.Int64, mpi.OpSum, 0, 0)
	win.Fence()
	if c.Rank() == 0 {
		n := int64(c.Size())
		if got := mpi.DecodeInt64(buf); got != n*(n+1)/2 {
			t.Errorf("accumulate sum %d", got)
		}
	}
	c.Barrier()
}

// TestConformanceBackendsDistinct guards the harness itself: both
// backends must actually run bodies on every rank.
func TestConformanceBackendsDistinct(t *testing.T) {
	for _, b := range mpitest.Backends() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			var ran atomic.Int64
			b.Run(t, 3, func(c *mpi.Comm) {
				ran.Add(1)
				c.Barrier()
			})
			if ran.Load() != 3 {
				t.Fatalf("backend %s ran %d ranks, want 3", b.Name, ran.Load())
			}
		})
	}
}
