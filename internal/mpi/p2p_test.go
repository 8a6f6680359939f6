package mpi

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"hcmpi/internal/netsim"
)

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send([]byte("hello"), 1, 7)
		case 1:
			buf := make([]byte, 16)
			st := c.Recv(buf, 0, 7)
			if st.Source != 0 || st.Tag != 7 || st.Bytes != 5 {
				t.Errorf("status = %+v", st)
			}
			if string(buf[:st.Bytes]) != "hello" {
				t.Errorf("payload = %q", buf[:st.Bytes])
			}
		}
	})
}

func TestRecvBeforeSend(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			time.Sleep(5 * time.Millisecond) // ensure recv posts first
			c.Send([]byte{42}, 1, 0)
		case 1:
			buf := make([]byte, 1)
			c.Recv(buf, 0, 0)
			if buf[0] != 42 {
				t.Errorf("got %d", buf[0])
			}
		}
	})
}

func TestWildcardSourceAndTag(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send([]byte{1}, 2, 11)
		case 1:
			c.Send([]byte{2}, 2, 22)
		case 2:
			got := map[byte]bool{}
			for i := 0; i < 2; i++ {
				buf := make([]byte, 1)
				st := c.Recv(buf, AnySource, AnyTag)
				got[buf[0]] = true
				if (buf[0] == 1 && (st.Source != 0 || st.Tag != 11)) ||
					(buf[0] == 2 && (st.Source != 1 || st.Tag != 22)) {
					t.Errorf("status/payload mismatch: %+v %v", st, buf[0])
				}
			}
			if !got[1] || !got[2] {
				t.Errorf("missing messages: %v", got)
			}
		}
	})
}

func TestNonOvertakingSameSrcTag(t *testing.T) {
	const n = 200
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				c.Send([]byte{byte(i)}, 1, 3)
			}
		case 1:
			for i := 0; i < n; i++ {
				buf := make([]byte, 1)
				c.Recv(buf, 0, 3)
				if buf[0] != byte(i) {
					t.Fatalf("overtaking: got %d want %d", buf[0], i)
				}
			}
		}
	})
}

func TestNonOvertakingWithLatency(t *testing.T) {
	const n = 50
	w := NewWorld(2, WithNetwork(netsim.Params{InterLatency: 50 * time.Microsecond}))
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				c.Isend([]byte{byte(i)}, 1, 3)
			}
		case 1:
			for i := 0; i < n; i++ {
				buf := make([]byte, 1)
				c.Recv(buf, 0, 3)
				if buf[0] != byte(i) {
					t.Fatalf("overtaking under latency: got %d want %d", buf[0], i)
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send([]byte{9}, 1, 100)
			c.Send([]byte{8}, 1, 200)
		case 1:
			buf := make([]byte, 1)
			// Receive tag 200 first even though 100 arrived first.
			c.Recv(buf, 0, 200)
			if buf[0] != 8 {
				t.Errorf("tag 200 got %d", buf[0])
			}
			c.Recv(buf, 0, 100)
			if buf[0] != 9 {
				t.Errorf("tag 100 got %d", buf[0])
			}
		}
	})
}

func TestIsendIrecvWaitTest(t *testing.T) {
	w := NewWorld(2, WithNetwork(netsim.Params{InterLatency: time.Millisecond}))
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			req := c.Isend([]byte("x"), 1, 0)
			if _, ok := req.Test(); ok {
				t.Error("Isend completed before latency elapsed")
			}
			st := req.Wait()
			if st.Bytes != 1 {
				t.Errorf("send status %+v", st)
			}
		case 1:
			buf := make([]byte, 1)
			req := c.Irecv(buf, 0, 0)
			st := req.Wait()
			if st.Bytes != 1 || buf[0] != 'x' {
				t.Errorf("recv %+v %q", st, buf)
			}
			// Second Test after completion still works.
			if _, ok := req.Test(); !ok {
				t.Error("Test after completion returned false")
			}
		}
	})
}

func TestTruncation(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send([]byte("0123456789"), 1, 0)
		case 1:
			buf := make([]byte, 4)
			st := c.Recv(buf, 0, 0)
			if !st.Truncated || st.Bytes != 4 || string(buf) != "0123" {
				t.Errorf("truncation: %+v %q", st, buf)
			}
		}
	})
}

func TestRecvBytesVariableSize(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(bytes.Repeat([]byte{7}, 123), 1, 0)
		case 1:
			payload, st := c.RecvBytes(0, 0)
			if len(payload) != 123 || st.Bytes != 123 {
				t.Errorf("got %d bytes, status %+v", len(payload), st)
			}
		}
	})
}

func TestCancelPostedRecv(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() != 1 {
			return
		}
		buf := make([]byte, 1)
		req := c.Irecv(buf, 0, 0)
		if !req.Cancel() {
			t.Error("Cancel of posted recv failed")
		}
		st := req.Wait()
		if !st.Cancelled {
			t.Errorf("status = %+v, want cancelled", st)
		}
		// Cancelling again is a no-op.
		if req.Cancel() {
			t.Error("second Cancel succeeded")
		}
	})
}

func TestCancelSendIsNoop(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			req := c.Isend([]byte{1}, 1, 0)
			if req.Cancel() {
				t.Error("send Cancel reported success")
			}
			req.Wait()
		case 1:
			buf := make([]byte, 1)
			c.Recv(buf, 0, 0)
		}
	})
}

func TestProbeAndIprobe(t *testing.T) {
	w := NewWorld(2, WithNetwork(netsim.Params{InterLatency: 500 * time.Microsecond}))
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(EncodeInt64s([]int64{1, 2, 3}), 1, 5)
		case 1:
			if _, ok := c.Iprobe(0, 99); ok {
				t.Error("Iprobe matched wrong tag")
			}
			// Poll until the message has arrived (the UTS baselines'
			// loop), bounded so a lost message fails instead of hanging.
			var st *Status
			for deadline := time.Now().Add(5 * time.Second); ; {
				var ok bool
				if st, ok = c.Iprobe(0, 5); ok {
					break
				}
				if time.Now().After(deadline) {
					t.Error("Iprobe found nothing within 5s")
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
			if st.Bytes != 24 || st.CountOf(Int64) != 3 {
				t.Errorf("iprobe status %+v", st)
			}
			// Iprobe did not consume: a second Iprobe still sees it.
			if _, ok := c.Iprobe(AnySource, 5); !ok {
				t.Error("second Iprobe found nothing")
			}
			buf := make([]byte, 24)
			c.Recv(buf, 0, 5)
			if _, ok := c.Iprobe(AnySource, 5); ok {
				t.Error("message still probeable after Recv")
			}
		}
	})
}

func TestWaitAllWaitAny(t *testing.T) {
	w := NewWorld(2, WithNetwork(netsim.Params{InterLatency: 200 * time.Microsecond}))
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 3; i++ {
				c.Send([]byte{byte(i)}, 1, i)
			}
		case 1:
			bufs := make([][]byte, 3)
			reqs := make([]*Request, 3)
			for i := range reqs {
				bufs[i] = make([]byte, 1)
				reqs[i] = c.Irecv(bufs[i], 0, i)
			}
			sts := WaitAll(reqs...)
			for j, st := range sts {
				if st.Bytes != 1 || bufs[j][0] != byte(j) {
					t.Errorf("WaitAll[%d] = %+v buf=%v", j, st, bufs[j])
				}
			}
			for j, r := range reqs {
				if _, ok := r.Test(); !ok {
					t.Errorf("Test[%d] false after WaitAll", j)
				}
			}
		}
	})
}

// Several goroutines per rank call Send and Recv on one endpoint at
// once, contending on its real locks: every message arrives intact.
func TestConcurrentSenders(t *testing.T) {
	const threads = 4
	const per = 100
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						c.Send([]byte{byte(th)}, 1, th)
					}
				}(th)
			}
			wg.Wait()
		case 1:
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					buf := make([]byte, 1)
					for i := 0; i < per; i++ {
						c.Recv(buf, 0, th)
						if buf[0] != byte(th) {
							t.Errorf("thread %d got %d", th, buf[0])
						}
					}
				}(th)
			}
			wg.Wait()
		}
	})
}

func TestAnyTagDoesNotMatchReservedTags(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		done := make(chan struct{})
		if c.Rank() == 1 {
			buf := make([]byte, 8)
			req := c.Irecv(buf, AnySource, AnyTag)
			go func() {
				req.Wait()
				close(done)
			}()
		}
		c.Barrier() // internal traffic must not satisfy the wildcard recv
		if c.Rank() == 1 {
			select {
			case <-done:
				t.Error("AnyTag recv matched collective traffic")
			case <-time.After(2 * time.Millisecond):
			}
			c.Send([]byte{1}, 1, 0) // self-send? no: rank 1 sends to itself
			<-done
		}
	})
}

func TestSelfSend(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		c.Isend([]byte("self"), 0, 9)
		buf := make([]byte, 4)
		st := c.Recv(buf, 0, 9)
		if string(buf) != "self" || st.Source != 0 {
			t.Errorf("self-send failed: %q %+v", buf, st)
		}
	})
}

func TestUserTagValidation(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("negative user tag did not panic")
			}
		}()
		c.Isend(nil, 0, -5)
	})
}

func TestWorldRunAllRanks(t *testing.T) {
	const n = 7
	var mu sync.Mutex
	seen := map[int]bool{}
	w := NewWorld(n, WithRanksPerNode(2))
	w.Run(func(c *Comm) {
		mu.Lock()
		seen[c.Rank()] = true
		mu.Unlock()
		if c.Size() != n {
			t.Errorf("Size = %d", c.Size())
		}
		if c.Node() != c.Rank()/2 {
			t.Errorf("Node(%d) = %d", c.Rank(), c.Node())
		}
	})
	if len(seen) != n {
		t.Fatalf("ran %d ranks, want %d", len(seen), n)
	}
}

func TestWorldAccessorsAndManualDriving(t *testing.T) {
	w := NewWorld(3)
	if w.Size() != 3 || w.Net() == nil {
		t.Fatalf("accessors: size=%d", w.Size())
	}
	// Manual Comm driving without Run.
	c0, c1 := w.Comm(0), w.Comm(1)
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 1)
		c1.Recv(buf, 0, 0)
		close(done)
	}()
	c0.Send([]byte{1}, 1, 0)
	<-done
	w.Close()
}

func TestRequestDoneChannelAndIrecvAdopt(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send([]byte("abcde"), 1, 3)
		case 1:
			r := c.IrecvAdopt(0, 3)
			r.Wait() // blocks on the lazily made completion channel
			if string(r.Payload()) != "abcde" {
				t.Errorf("payload %q", r.Payload())
			}
			if c.PendingUnexpected() != 0 {
				t.Errorf("unexpected queue: %d", c.PendingUnexpected())
			}
		}
	})
}

func TestCheckRankPanics(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("send to out-of-range rank did not panic")
			}
		}()
		c.Isend(nil, 9, 0)
	})
}

func TestCountOfZeroSizeDatatype(t *testing.T) {
	st := Status{Bytes: 16}
	if st.CountOf(Datatype{}) != 0 {
		t.Fatal("zero-size datatype should count 0")
	}
	if st.CountOf(Int32) != 4 {
		t.Fatal("int32 count wrong")
	}
	if (OpMin.i64)(3, 5) != 3 || (OpMin.i64)(5, 3) != 3 {
		t.Fatal("min wrong")
	}
}

// TestMsgQueueKeepsArrivalOrder drives the unexpected queue's take and
// push against a plain slice: takes from the head, the middle and the
// tail, interleaved with pushes that wrap the backing array through
// compaction and growth, must leave the same messages in the same order.
func TestMsgQueueKeepsArrivalOrder(t *testing.T) {
	var q msgQueue
	var ref []int
	next := 0
	check := func(step int) {
		t.Helper()
		live := q.live()
		if len(live) != len(ref) {
			t.Fatalf("step %d: %d queued, want %d", step, len(live), len(ref))
		}
		for i, m := range live {
			if m.tag != ref[i] {
				t.Fatalf("step %d: slot %d holds %d, want %d", step, i, m.tag, ref[i])
			}
		}
	}
	for step := 0; step < 2000; step++ {
		// Bursts of pushes, then takes at a position that cycles through
		// head, middle and tail.
		if step%7 < 4 {
			q.push(inMsg{tag: next})
			ref = append(ref, next)
			next++
		} else if len(ref) > 0 {
			i := [3]int{0, len(ref) / 2, len(ref) - 1}[step%3]
			q.take(i)
			ref = append(ref[:i], ref[i+1:]...)
		}
		check(step)
	}
	for len(ref) > 0 {
		q.take(0)
		ref = ref[1:]
	}
	if q.head != 0 || len(q.msgs) != 0 || cap(q.msgs) == 0 {
		t.Fatalf("drained queue: head %d len %d cap %d, want 0, 0 and the kept array", q.head, len(q.msgs), cap(q.msgs))
	}
}
