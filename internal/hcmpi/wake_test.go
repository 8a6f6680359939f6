package hcmpi

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
)

// The wake-word tests. Each one waits until the dedicated worker sleeps
// quiet — no timer, so it sweeps again only when kicked — and then
// publishes work that nobody else will drive: the rank's only
// computation worker is busy in a task that spins without sweeping. Each
// guards one kick, and without that kick it fails at its 5 s bound.

// spinUntil spins, yielding the processor but never sweeping, until cond
// holds or five seconds pass.
func spinUntil(t *testing.T, what string, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return false
		}
		runtime.Gosched()
	}
	return true
}

// waitQuiet waits until n's dedicated worker sleeps quiet.
func waitQuiet(t *testing.T, n *Node) bool {
	t.Helper()
	return spinUntil(t, "the dedicated worker to sleep quiet", func() bool { return n.asleep.Load() == asleepQuiet })
}

// An Outbox append prescribes a flush, which kicks the sender's quiet
// worker: nobody else on the rank sweeps.
func TestQuietWakeOnOutboxAppend(t *testing.T) {
	var got atomic.Int64
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		n := NewNode(c, Config{Workers: 1})
		n.Listen(tagBox, func(int, []byte) { got.Add(1) })
		n.Main(func(ctx *hc.Ctx) {
			n.Barrier(ctx) // both listeners installed
			if n.Rank() != 0 {
				return
			}
			o := n.NewOutbox(1, tagBox, "box")
			if waitQuiet(t, n) {
				o.Append([]byte{1})
				spinUntil(t, "the record at the peer's listener", func() bool { return got.Load() == 1 })
			}
		})
		n.Close()
	})
}

// A message on a reserved tag kicks the receiver's quiet worker from the
// delivering goroutine (mpi.Comm.NotifyReserved): the receiver's only
// computation worker is busy, so its listener runs on no other sweep.
func TestQuietWakeOnReservedDelivery(t *testing.T) {
	var got atomic.Int64
	ready := make(chan struct{})
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		n := NewNode(c, Config{Workers: 1})
		n.Listen(tagBox, func(int, []byte) { got.Add(1) })
		n.Main(func(ctx *hc.Ctx) {
			n.Barrier(ctx)
			if n.Rank() == 0 {
				<-ready
				if st := n.Wait(ctx, n.SendReserved([]byte{1}, 1, tagBox)); st.Err != nil {
					t.Errorf("reserved send: %v", st.Err)
				}
				return
			}
			quiet := waitQuiet(t, n)
			close(ready)
			if quiet {
				spinUntil(t, "the listener to run", func() bool { return got.Load() == 1 })
			}
		})
		n.Close()
	})
}

// A user receive posted into a quiet worker kicks it, though user
// operations leave a timed sleeper alone: a quiet worker would never
// poll the receive, and the later send's user tag announces nothing.
func TestQuietWakeOnUserIrecv(t *testing.T) {
	ready := make(chan struct{})
	mpi.NewWorld(2).Run(func(c *mpi.Comm) {
		n := NewNode(c, Config{Workers: 1})
		n.Main(func(ctx *hc.Ctx) {
			n.Barrier(ctx)
			if n.Rank() == 0 {
				<-ready
				n.Send(ctx, []byte{7}, 1, 5)
				return
			}
			if !waitQuiet(t, n) {
				close(ready)
				return
			}
			buf := make([]byte, 1)
			r := n.Irecv(buf, 0, 5)
			close(ready)
			if spinUntil(t, "the receive to complete", func() bool { _, ok := r.Test(); return ok }) {
				if st := r.status(); st.Err != nil || st.Bytes != 1 || buf[0] != 7 {
					t.Errorf("receive: %+v payload %v", st, buf)
				}
			}
		})
		n.Close()
	})
}
