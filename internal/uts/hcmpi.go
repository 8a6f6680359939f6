package uts

import (
	"time"

	"hcmpi/internal/distsched"
	"hcmpi/internal/hc"
	"hcmpi/internal/hcmpi"
)

// The HCMPI implementation (paper §IV-B), built on the runtime's
// distributed scheduler (internal/distsched): one HCMPI process per
// node, intra-node parallelism from computation workers, and all
// inter-node traffic — steal requests, grants, the termination token —
// handled by the dedicated communication worker through the scheduler's
// listener tasks, so computation workers are never interrupted to
// answer remote thieves.
//
// A migratable task is one chunk of tree nodes (EncodeNodes payload).
// The handler decodes it onto the worker's persistent stack, explores
// depth-first in PollInterval slices and spills the bottom of the stack
// as fresh tasks whenever it can spare a chunk — encoded straight from
// the stack into a pooled payload buffer; those tasks feed intra-node
// deque steals and inter-node steal-half grants alike. Global
// termination is the scheduler's Safra ring; the hand-rolled protocol
// this file used to carry (tags -301..-304) is gone.

// RunHCMPI executes UTS on one HCMPI node and returns the node's
// aggregated counters. All ranks must call it (SPMD). It owns the
// node's main task; inside an existing Node.Main use RunHCMPIIn.
func RunHCMPI(n *hcmpi.Node, cfg Config, p Params) Counters {
	s := distsched.New(n)
	var (
		ctr Counters
		err error
	)
	n.Main(func(ctx *hc.Ctx) {
		ctr, err = runHCMPIOn(s, ctx, cfg, p)
	})
	if err != nil {
		// The in-process worlds this entry point serves have no
		// fail-stop story for the caller; a failed rank is a test or
		// harness bug, not a recoverable condition.
		panic("uts: HCMPI run aborted: " + err.Error())
	}
	return ctr
}

// RunHCMPIIn is RunHCMPI for callers already inside a Node.Main task
// (multi-process launchers like cmd/hcmpirun). It returns the abort
// error instead of panicking, so survivors of a rank failure can report
// mpi.ErrRankFailed.
func RunHCMPIIn(n *hcmpi.Node, ctx *hc.Ctx, cfg Config, p Params) (Counters, error) {
	return runHCMPIOn(distsched.New(n), ctx, cfg, p)
}

// hcmpiWorker is one driver's UTS state. Frames on one worker run one
// after the other, so it needs no lock.
type hcmpiWorker struct {
	cfg   *Config
	p     Params
	stack nodeStack
	ctr   Counters
}

// runFrame is the "uts" task: count the subtrees under the payload's
// nodes, spilling what the stack can spare. The clock is read when the
// frame begins and ends and around each spill (steal.go's rule).
//
//hclint:hotpath
func (w *hcmpiWorker) runFrame(tc *distsched.TaskCtx, payload []byte) {
	t0, spilling := now(), time.Duration(0)
	w.stack.decode(payload)
	for w.stack.len() > 0 {
		w.stack.expand(w.cfg, w.p.PollInterval, &w.ctr)
		if w.stack.canRelease(w.p.Chunk) {
			// Spill the oldest nodes as a migratable task: local peers
			// steal it through the deques, remote thieves through the
			// scheduler's grant protocol.
			t := now()
			buf := tc.Buffer(w.p.Chunk * encodedNodeSize)
			tc.Spawn("uts", encodeNodes(buf, w.stack.releaseBottom(w.p.Chunk)))
			spilling += now() - t
		}
	}
	w.ctr.Overhead += spilling
	w.ctr.Work += now() - t0 - spilling
}

// runHCMPIOn registers the UTS task kind, seeds the root, and drives
// the scheduler to global termination.
func runHCMPIOn(s *distsched.Scheduler, ctx *hc.Ctx, cfg Config, p Params) (Counters, error) {
	n := s.Node()
	p = p.normalized()
	ws := make([]hcmpiWorker, n.Workers())
	for i := range ws {
		ws[i].cfg, ws[i].p = &cfg, p
	}
	s.Register("uts", func(tc *distsched.TaskCtx, payload []byte) {
		ws[tc.Worker()].runFrame(tc, payload)
	})
	if n.Rank() == 0 {
		s.Submit("uts", EncodeNodes([]Node{cfg.Root()}))
	}
	err := s.Run(ctx)

	var out Counters
	for i := range ws {
		out.Add(ws[i].ctr)
	}
	st := s.Stats()
	out.Steals = st.GrantsIn
	out.FailedSteals = st.DeniesIn
	out.LocalSteals = st.LocalSteals
	out.Released = st.GrantsOut
	out.Search = st.Search
	return out, err
}
