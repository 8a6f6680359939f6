package hcmpi

import (
	"hcmpi/internal/hc"
	"hcmpi/internal/mpi"
)

// Point-to-point and collective API (paper Table I). Every call here runs
// in a computation task; the operation itself is carried out by a sweep
// of the progress engine. Blocking variants are built from the
// non-blocking ones as the paper prescribes — HCMPI_Recv is an
// HCMPI_Irecv followed by HCMPI_Wait, and HCMPI_Wait awaits the request's
// DDF — but every wait is help-first, and blocks the task rather than
// joining a finish { async await(req) }: see await.

// Isend starts an asynchronous send (HCMPI_Isend). The buffer belongs to
// the library until the request completes: the sweep that dispatches the
// send copies it then, not when Isend returns, so the caller must not
// write it before a Wait or Test has seen the request complete.
func (n *Node) Isend(buf []byte, dest, tag int) *Request {
	req := n.newRequest()
	t := n.allocTask()
	t.kind = kindIsend
	t.buf, t.peer, t.tag = buf, dest, tag
	t.request = req
	n.prescribe(t)
	return req
}

// Irecv starts an asynchronous receive into buf (HCMPI_Irecv).
func (n *Node) Irecv(buf []byte, src, tag int) *Request {
	req := n.newRequest()
	t := n.allocTask()
	t.kind = kindIrecv
	t.buf, t.peer, t.tag = buf, src, tag
	t.request = req
	n.prescribe(t)
	return req
}

// IrecvBytes starts an asynchronous receive of a variable-size message;
// the completion Status carries the payload.
func (n *Node) IrecvBytes(src, tag int) *Request {
	req := n.newRequest()
	t := n.allocTask()
	t.kind = kindIrecv
	t.peer, t.tag = src, tag
	t.takeAll = true
	t.request = req
	n.prescribe(t)
	return req
}

// await is the help-first wait under every blocking call: it returns
// once all of rs (or, with any set, one of them) have completed. If they
// already have it costs one atomic load per request. Otherwise the task
// drives the progress engine itself for waitHelpRounds sweeps — its own
// operation is issued, polled and completed on this goroutine — and only
// if the wait outlasts that budget does it block on the request DDFs
// (hc.Ctx.Block): the worker keeps sweeping through the idle hook and
// parks once the node has no visible work, and any task it finds
// meanwhile runs on a stand-in goroutine, never on top of this one.
//
// No wait runs another task on its own stack. A task started from inside
// a wait buries the waiter's continuation under it; if it blocks in turn
// on a peer whose matching task is buried the same way, the two ranks
// deadlock. (The paper's finish { async await } join had this hazard;
// DESIGN.md §16.)
func (n *Node) await(ctx *hc.Ctx, any bool, rs ...*Request) {
	for sweeps, tries := 0, 0; sweeps < waitHelpRounds && tries < waitHelpTries; tries++ {
		if completed(any, rs) {
			return
		}
		if swept, _ := n.trySweep(ctx); swept {
			sweeps++
		}
	}
	if completed(any, rs) {
		return
	}
	if len(rs) == 1 {
		ctx.Block(any, &rs[0].ddf)
		return
	}
	ddfs := make([]*hc.DDF, len(rs))
	for i, r := range rs {
		ddfs[i] = &r.ddf
	}
	ctx.Block(any, ddfs...)
}

// completed reports whether all (any: at least one) of rs are complete.
func completed(any bool, rs []*Request) bool {
	for _, r := range rs {
		if r.ddf.Full() == any {
			return any
		}
	}
	return !any
}

// status returns a completed request's status.
func (r *Request) status() *Status { return r.ddf.MustGet().(*Status) }

// Wait blocks the computation task until the request completes
// (HCMPI_Wait); the worker drives communication progress and executes
// other tasks while logically blocked.
func (n *Node) Wait(ctx *hc.Ctx, r *Request) *Status {
	n.await(ctx, false, r)
	return r.status()
}

// WaitAll blocks until every request completes (HCMPI_Waitall): the
// awaited DDF list is an AND expression.
func (n *Node) WaitAll(ctx *hc.Ctx, rs ...*Request) []*Status {
	n.await(ctx, false, rs...)
	sts := make([]*Status, len(rs))
	for i, r := range rs {
		sts[i] = r.status()
	}
	return sts
}

// WaitAny blocks until at least one request completes (HCMPI_Waitany):
// the awaited DDF list is an OR expression. It returns the index of a
// completed request and its status.
func (n *Node) WaitAny(ctx *hc.Ctx, rs ...*Request) (int, *Status) {
	if len(rs) == 0 {
		return -1, nil
	}
	n.await(ctx, true, rs...)
	for i, r := range rs {
		if st, ok := r.Test(); ok {
			return i, st
		}
	}
	panic("hcmpi: WaitAny released with no completed request")
}

// Send is the blocking send (HCMPI_Send): a non-blocking send and a
// Wait.
func (n *Node) Send(ctx *hc.Ctx, buf []byte, dest, tag int) *Status {
	return n.Wait(ctx, n.Isend(buf, dest, tag))
}

// Recv is the blocking receive (HCMPI_Recv), per the paper's Fig. 3.
func (n *Node) Recv(ctx *hc.Ctx, buf []byte, src, tag int) *Status {
	return n.Wait(ctx, n.Irecv(buf, src, tag))
}

// RecvBytes is the blocking variable-size receive.
func (n *Node) RecvBytes(ctx *hc.Ctx, src, tag int) ([]byte, *Status) {
	st := n.Wait(ctx, n.IrecvBytes(src, tag))
	return st.Payload, st
}

// RequestCreate builds a fresh, unbound request handle
// (HCMPI_REQUEST_CREATE). Since HCMPI requests are DDFs, an unbound
// request is a user-managed synchronization cell: complete it with
// CompleteRequest and await it like any communication.
func (n *Node) RequestCreate() *Request { return n.newRequest() }

// CompleteRequest resolves a user-created request with st, releasing any
// tasks awaiting it. Completing a runtime-owned request is an error.
func (n *Node) CompleteRequest(ctx *hc.Ctx, r *Request, st *Status) error {
	return r.ddf.TryPut(ctx, st)
}

// Cancel asks the communication worker to cancel an outstanding
// operation (HCMPI_Cancel). Only posted-but-unmatched receives can be
// cancelled; the call blocks the computation task until the attempt has
// been made and reports whether it took effect. A cancelled operation's
// request completes with a Cancelled status, so awaiting tasks still run.
func (n *Node) Cancel(ctx *hc.Ctx, r *Request) bool {
	req := n.newRequest()
	t := n.allocTask()
	t.kind = kindCancel
	t.cancelTarget = r
	t.request = req
	n.prescribe(t)
	st := n.Wait(ctx, req)
	return st.Cancelled
}

// Test is HCMPI_Test.
func (n *Node) Test(r *Request) (*Status, bool) { return r.Test() }

// TestAll is HCMPI_Testall.
func (n *Node) TestAll(rs ...*Request) ([]*Status, bool) {
	sts := make([]*Status, len(rs))
	for i, r := range rs {
		st, ok := r.Test()
		if !ok {
			return nil, false
		}
		sts[i] = st
	}
	return sts, true
}

// TestAny is HCMPI_Testany.
func (n *Node) TestAny(rs ...*Request) (int, *Status, bool) {
	for i, r := range rs {
		if st, ok := r.Test(); ok {
			return i, st, true
		}
	}
	return -1, nil, false
}

// Listen installs a persistent handler for a reserved (negative) tag; the
// communication worker invokes fn for every arriving message. This is the
// listener-task facility the runtime uses for DDDF homes and that the UTS
// port uses to answer steal requests while computation workers are busy.
//
// payload is borrowed: it is valid only for the duration of the call.
// The sweep hands the buffer back to the transport's pool as soon as fn
// returns, and the next message may be staged in it, so fn must copy
// whatever it keeps — storing payload or a sub-slice of it anywhere that
// outlives the call is a bug (hclint's buffer-reuse analyzer flags it,
// and builds with -tags hcmpi_debug poison the bytes with 0xDB on
// return so a retained slice fails loudly). fn runs under the sweep lock
// and must not block.
func (n *Node) Listen(tag int, fn func(src int, payload []byte)) {
	req := n.newRequest()
	t := n.allocTask()
	t.kind = kindListen
	t.tag = tag
	t.listenFn = fn
	t.request = req
	n.prescribe(t)
	req.ddf.Await() // installation is synchronous and cheap
}

// SendReserved sends on a reserved tag through the communication worker;
// protocol use only. It does not wait for delivery.
func (n *Node) SendReserved(buf []byte, dest, tag int) *Request {
	req := n.newRequest()
	t := n.allocTask()
	t.kind = kindIsend
	t.buf, t.peer, t.tag = buf, dest, tag
	t.request = req
	n.prescribe(t)
	return req
}

// --- Collectives (blocking, per paper §II-C) ---

// startCollective prescribes t, whose schedule the caller has described,
// as a collective task and returns its request. A sweep starts the
// schedule when it dispatches the task and advances it from then on.
func (n *Node) startCollective(t *commTask) *Request {
	req := n.newRequest()
	t.kind = kindCollective
	t.request = req
	n.prescribe(t)
	return req
}

// collective runs t as a collective task and blocks the computation task
// (Wait) until the progress engine has completed it. Without a task
// context — Close, and phaser hooks, which run on the phased task's own
// goroutine — it blocks the goroutine on the request instead.
func (n *Node) collective(ctx *hc.Ctx, t *commTask) *Status {
	req := n.startCollective(t)
	if ctx != nil {
		return n.Wait(ctx, req)
	}
	return req.ddf.Await().(*Status)
}

// Barrier blocks until every rank's computation reaches it
// (HCMPI_Barrier).
func (n *Node) Barrier(ctx *hc.Ctx) {
	t := n.collTask()
	t.coll.Barrier()
	n.collective(ctx, t)
}

// Bcast broadcasts root's buf into every rank's buf (HCMPI_Bcast).
func (n *Node) Bcast(ctx *hc.Ctx, buf []byte, root int) {
	t := n.collTask()
	t.coll.Bcast(buf, root)
	n.collective(ctx, t)
}

// Reduce folds data with op at root (HCMPI_Reduce); non-roots get nil.
func (n *Node) Reduce(ctx *hc.Ctx, data []byte, dt mpi.Datatype, op mpi.Op, root int) []byte {
	t := n.collTask()
	t.coll.Reduce(data, dt, op, root)
	st := n.collective(ctx, t)
	if n.Rank() != root {
		return nil
	}
	return st.Payload
}

// Allreduce folds data with op on every rank (HCMPI_Allreduce).
func (n *Node) Allreduce(ctx *hc.Ctx, data []byte, dt mpi.Datatype, op mpi.Op) []byte {
	t := n.collTask()
	t.coll.Allreduce(data, dt, op)
	return n.collective(ctx, t).Payload
}

// Scan computes the inclusive prefix fold (HCMPI_Scan).
func (n *Node) Scan(ctx *hc.Ctx, data []byte, dt mpi.Datatype, op mpi.Op) []byte {
	t := n.collTask()
	t.coll.Scan(data, dt, op)
	return n.collective(ctx, t).Payload
}

// Gather collects each rank's data at root (HCMPI_Gather).
func (n *Node) Gather(ctx *hc.Ctx, data []byte, root int) [][]byte {
	t := n.collTask()
	t.coll.Gather(data, root)
	return n.collective(ctx, t).Parts
}

// Allgather collects each rank's data everywhere (HCMPI_Allgather).
func (n *Node) Allgather(ctx *hc.Ctx, data []byte) [][]byte {
	t := n.collTask()
	t.coll.Allgather(data)
	return n.collective(ctx, t).Parts
}

// Scatter distributes root's parts (HCMPI_Scatter).
func (n *Node) Scatter(ctx *hc.Ctx, parts [][]byte, root int) []byte {
	t := n.collTask()
	t.coll.Scatter(parts, root)
	return n.collective(ctx, t).Payload
}
