package mpi

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// freeAddrs grabs n free localhost ports.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// runDistributed runs an SPMD body over a real TCP mesh; each rank is a
// goroutine here, but nothing is shared — all communication crosses
// sockets.
func runDistributed(t *testing.T, n int, body func(c *Comm)) {
	t.Helper()
	addrs := freeAddrs(t, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c, closer, err := Distributed(r, addrs)
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			body(c)
			c.Barrier() // settle all traffic before teardown
			closer.Close()
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPSendRecv(t *testing.T) {
	runDistributed(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send([]byte("over the wire"), 1, 9)
		case 1:
			payload, st := c.RecvBytes(0, 9)
			if string(payload) != "over the wire" || st.Source != 0 {
				t.Errorf("got %q %+v", payload, st)
			}
		}
	})
}

func TestTCPNonOvertaking(t *testing.T) {
	const msgs = 300
	runDistributed(t, 2, func(c *Comm) {
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
					t.Fatalf("overtaking at %d: got %d", i, buf[0])
				}
			}
		}
	})
}

func TestTCPCollectives(t *testing.T) {
	const n = 4
	runDistributed(t, n, func(c *Comm) {
		c.Barrier()
		sum := DecodeInt64(c.Allreduce(EncodeInt64(int64(c.Rank()+1)), Int64, OpSum))
		if sum != n*(n+1)/2 {
			t.Errorf("rank %d sum %d", c.Rank(), sum)
		}
		buf := make([]byte, 8)
		if c.Rank() == 3 {
			copy(buf, EncodeInt64(777))
		}
		c.Bcast(buf, 3)
		if DecodeInt64(buf) != 777 {
			t.Errorf("rank %d bcast %d", c.Rank(), DecodeInt64(buf))
		}
		out := c.Allgather(EncodeInt64(int64(c.Rank() * 3)))
		for r := 0; r < n; r++ {
			if DecodeInt64(out[r]) != int64(r*3) {
				t.Errorf("allgather[%d] = %d", r, DecodeInt64(out[r]))
			}
		}
	})
}

func TestTCPRMA(t *testing.T) {
	const n = 3
	runDistributed(t, n, func(c *Comm) {
		buf := make([]byte, n)
		win := c.WinCreate(buf)
		for target := 0; target < n; target++ {
			win.Put([]byte{byte(c.Rank() + 1)}, target, c.Rank())
		}
		win.Fence()
		for r := 0; r < n; r++ {
			if buf[r] != byte(r+1) {
				t.Errorf("rank %d buf[%d] = %d", c.Rank(), r, buf[r])
			}
		}
	})
}

func TestTCPSelfSend(t *testing.T) {
	runDistributed(t, 2, func(c *Comm) {
		c.Isend([]byte{9}, c.Rank(), 1)
		buf := make([]byte, 1)
		c.Recv(buf, c.Rank(), 1)
		if buf[0] != 9 {
			t.Errorf("self-send got %d", buf[0])
		}
	})
}

func TestTCPWildcards(t *testing.T) {
	runDistributed(t, 3, func(c *Comm) {
		if c.Rank() == 2 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				_, st := c.RecvBytes(AnySource, AnyTag)
				seen[st.Source] = true
			}
			if !seen[0] || !seen[1] {
				t.Errorf("sources %v", seen)
			}
			return
		}
		c.Send([]byte{byte(c.Rank())}, 2, c.Rank()+10)
	})
}

func TestDistributedBadRank(t *testing.T) {
	if _, _, err := Distributed(5, []string{"127.0.0.1:0"}); err == nil {
		t.Fatal("bad rank accepted")
	}
}

// bringUp builds a same-process mesh and hands every rank's endpoint
// back for direct driving (failure tests tear ranks down one-sidedly,
// so the collective teardown in runDistributed does not apply).
// optsFor supplies per-rank options.
func bringUp(t *testing.T, n int, optsFor func(rank int) []DistOption) ([]*Comm, []io.Closer) {
	t.Helper()
	addrs := freeAddrs(t, n)
	comms := make([]*Comm, n)
	closers := make([]io.Closer, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var opts []DistOption
			if optsFor != nil {
				opts = optsFor(r)
			}
			c, closer, err := Distributed(r, addrs, opts...)
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			comms[r], closers[r] = c, closer
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return comms, closers
}

// TestTCPPeerFailure is the transport's failure contract: when a peer's
// connection dies, receives posted against it complete with
// ErrRankFailed (no hang), and future sends to it fail fast.
func TestTCPPeerFailure(t *testing.T) {
	comms, closers := bringUp(t, 2, nil)
	defer closers[0].Close()

	req := comms[0].Irecv(make([]byte, 8), 1, 7)
	closers[1].Close() // rank 1 goes away without warning rank 0

	st := req.WaitStatus()
	if st.Err != ErrRankFailed {
		t.Fatalf("posted recv after peer death: %+v, want ErrRankFailed", st)
	}
	// The failure detector now fast-fails anything aimed at the dead rank.
	if st := comms[0].Isend([]byte{1}, 1, 7).WaitStatus(); st.Err != ErrRankFailed {
		t.Fatalf("send to dead rank: %+v, want ErrRankFailed", st)
	}
	if got := comms[0].Metrics().Counter("comm_tcp_peer_failures").Load(); got == 0 {
		t.Fatal("comm_tcp_peer_failures not incremented")
	}
}

// TestTCPHeartbeatDetectsSilentPeer covers the missed-heartbeat path:
// rank 1 keeps its connection open but never speaks (keepalives
// disabled), and rank 0's detector must declare it failed.
func TestTCPHeartbeatDetectsSilentPeer(t *testing.T) {
	comms, closers := bringUp(t, 2, func(rank int) []DistOption {
		if rank == 0 {
			return []DistOption{func(c *distConfig) { c.hbInterval, c.hbTimeout = 20*time.Millisecond, 200*time.Millisecond }}
		}
		return []DistOption{func(c *distConfig) { c.hbInterval = 0 }} // mute rank 1
	})
	defer closers[0].Close()
	defer closers[1].Close()

	req := comms[0].Irecv(make([]byte, 8), 1, 7)
	done := make(chan Status, 1)
	go func() { done <- req.WaitStatus() }()
	select {
	case st := <-done:
		if st.Err != ErrRankFailed {
			t.Fatalf("recv from silent peer: %+v, want ErrRankFailed", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("missed-heartbeat detector never fired")
	}
}

// TestTCPQueueBackpressure pins the bounded-queue contract: a full
// outbound queue blocks the sender (it must not drop or fail frames),
// and everything still arrives in order.
func TestTCPQueueBackpressure(t *testing.T) {
	const msgs = 200
	comms, closers := bringUp(t, 2, func(int) []DistOption {
		return []DistOption{func(c *distConfig) { c.queueCap = 1 }}
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			if st := comms[0].Isend([]byte{byte(i)}, 1, 3).WaitStatus(); st.Err != nil {
				t.Errorf("send %d: %+v", i, st)
				return
			}
		}
	}()
	buf := make([]byte, 1)
	for i := 0; i < msgs; i++ {
		if st := comms[1].Recv(buf, 0, 3); st.Err != nil || buf[0] != byte(i) {
			t.Fatalf("recv %d: %+v buf=%d", i, st, buf[0])
		}
	}
	wg.Wait()
	closers[0].Close()
	closers[1].Close()
}

// TestTCPMetricsWiring spot-checks the comm_tcp_* counters after a
// known traffic pattern.
func TestTCPMetricsWiring(t *testing.T) {
	runDistributed(t, 2, func(c *Comm) {
		peer := 1 - c.Rank()
		buf := make([]byte, 100)
		for i := 0; i < 10; i++ {
			// Send waits for wire completion, so the send-side counters
			// are committed before it returns; Recv likewise for the
			// receive-side ones.
			c.Send(make([]byte, 100), peer, 1)
			c.Recv(buf, peer, 1)
		}
		m := c.Metrics()
		if got := m.Counter("comm_tcp_frames_sent").Load(); got < 10 {
			t.Errorf("comm_tcp_frames_sent = %d, want >= 10", got)
		}
		if got := m.Counter("comm_tcp_flush_batches").Load(); got == 0 {
			t.Error("comm_tcp_flush_batches = 0")
		}
		if got := m.Counter("comm_tcp_bytes_sent").Load(); got < 1000 {
			t.Errorf("comm_tcp_bytes_sent = %d, want >= 1000", got)
		}
		if got := m.Counter("comm_tcp_bytes_recv").Load(); got < 1000 {
			t.Errorf("comm_tcp_bytes_recv = %d, want >= 1000", got)
		}
	})
}

var _ io.Closer = (*tcpMesh)(nil)
