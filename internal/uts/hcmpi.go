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
// The handler decodes it onto the worker's persistent stack and
// explores depth-first in PollInterval slices. Work is shared on
// demand, not on a count (lazy task creation): after each slice the
// handler loads the scheduler's demand word (TaskCtx.Hungry), and only
// when a thief has found this rank short does it spill — the bottom
// half of its stack, the oldest nodes, up to spillFrames frames of at
// most Chunk nodes, encoded straight from the stack into recycled
// payload buffers. Those frames feed intra-node deque steals and
// inter-node steal-half grants alike. The word is set by distsched when
// a remote steal request leaves less than a full grant queued (a denied
// thief retries and finds the spill), when a driver on a multi-driver
// rank runs dry, or when a driver of a multi-rank job takes its deque's
// last frame, and Spawn clears it. A busy rank nobody asks spawns
// nothing: at one rank and one worker the seed is the job's only
// frame. Global termination is the scheduler's Safra ring.

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
// nodes, spilling half the stack whenever the rank is asked for work.
// Checking costs one atomic load a slice; the clock is read when the
// frame begins and ends and around each spill (steal.go's rule).
//
//hclint:hotpath
func (w *hcmpiWorker) runFrame(tc *distsched.TaskCtx, payload []byte) {
	t0, spilling := now(), time.Duration(0)
	w.stack.decode(payload)
	for w.stack.len() > 0 {
		w.stack.expand(w.cfg, w.p.PollInterval, &w.ctr)
		if tc.Hungry() && w.stack.len() >= 2 {
			t := now()
			w.spill(tc)
			spilling += now() - t
		}
	}
	w.ctr.Overhead += spilling
	w.ctr.Work += now() - t0 - spilling
}

// spillFrames caps one spill, as maxBatch caps a steal grant in
// distsched. Uncapped, a T3Mid spill handed out up to 200 frames at
// once, more than the scheduler kept for reuse, and the frames of a
// 1 rank × 2 worker solve cost 0.5 allocations each, against 0.05
// capped (DESIGN.md §13).
const spillFrames = 16

// spill gives away the bottom half of the stack, the oldest nodes, as
// at most spillFrames migratable tasks of at most Chunk nodes each:
// local peers steal them through the deques, remote thieves through
// the scheduler's grant protocol.
func (w *hcmpiWorker) spill(tc *distsched.TaskCtx) {
	for left := min(w.stack.len()/2, spillFrames*w.p.Chunk); left > 0; {
		k := min(left, w.p.Chunk)
		buf := tc.Buffer(k * encodedNodeSize)
		tc.Spawn("uts", encodeNodes(buf, w.stack.releaseBottom(k)))
		left -= k
	}
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
