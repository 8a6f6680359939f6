package hcmpi

import (
	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
)

// One-sided communication and non-blocking collectives — the paper's
// named future work ("support for more MPI-like APIs in the HCMPI
// programming model, including one-sided communication operations";
// "We will add support for non-blocking collectives to HCMPI once they
// become part of the MPI standard"). As with every HCMPI operation, the
// calls here create communication tasks executed by the communication
// worker; requests are DDFs and compose with finish/await/phasers.

// Win is an HCMPI window handle.
type Win struct {
	n   *Node
	win *mpi.Win
}

// WinCreate collectively creates an RMA window over buf
// (HCMPI_Win_create). Call from every rank in the same order.
func (n *Node) WinCreate(ctx *hc.Ctx, buf []byte) *Win {
	// Window creation is a local registration plus a barrier: a
	// collective task like any other.
	t := n.collTask()
	win := t.coll.WinCreate(buf)
	n.collective(ctx, t)
	return &Win{n: n, win: win}
}

// Buf returns the locally exposed window buffer.
func (w *Win) Buf() []byte { return w.win.Buf() }

// Put starts a one-sided write into target's window (HCMPI_Put). The
// returned request completes when the write has been applied remotely.
func (w *Win) Put(data []byte, target, offset int) *Request {
	return w.oneSided(func() *mpi.Request { return w.win.Put(data, target, offset) })
}

// Get starts a one-sided read of n bytes from target's window
// (HCMPI_Get); the data arrives in the completion status payload.
func (w *Win) Get(n, target, offset int) *Request {
	return w.oneSided(func() *mpi.Request { return w.win.Get(n, target, offset) })
}

// Accumulate starts a one-sided reduction into target's window
// (HCMPI_Accumulate).
func (w *Win) Accumulate(data []byte, dt mpi.Datatype, op mpi.Op, target, offset int) *Request {
	return w.oneSided(func() *mpi.Request { return w.win.Accumulate(data, dt, op, target, offset) })
}

// oneSided enqueues the operation as a communication task; the comm
// worker issues it and polls its completion like a point-to-point op.
func (w *Win) oneSided(issue func() *mpi.Request) *Request {
	req := w.n.newRequest()
	t := w.n.allocTask()
	t.kind = kindOneSided
	t.issue = issue
	t.request = req
	w.n.prescribe(t)
	return req
}

// Fence closes the access epoch (HCMPI_Win_fence): a collective through
// the communication worker that blocks the calling computation task.
func (w *Win) Fence(ctx *hc.Ctx) {
	t := w.n.collTask()
	t.coll.Fence(w.win)
	w.n.collective(ctx, t)
}

// --- non-blocking collectives ---

// IBarrier starts a non-blocking barrier (HCMPI_Ibarrier); synchronize
// with Wait / await on the request.
func (n *Node) IBarrier() *Request {
	t := n.collTask()
	t.coll.Barrier()
	return n.startCollective(t)
}

// IBcast starts a non-blocking broadcast of root's buf (HCMPI_Ibcast).
// Do not touch buf until the request completes.
func (n *Node) IBcast(buf []byte, root int) *Request {
	t := n.collTask()
	t.coll.Bcast(buf, root)
	return n.startCollective(t)
}

// IAllreduce starts a non-blocking allreduce (HCMPI_Iallreduce); the
// globally reduced value is the completion status payload.
func (n *Node) IAllreduce(data []byte, dt mpi.Datatype, op mpi.Op) *Request {
	t := n.collTask()
	t.coll.Allreduce(data, dt, op)
	return n.startCollective(t)
}
