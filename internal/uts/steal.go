package uts

import (
	"math/rand"
	"time"
)

// Steal bookkeeping shared by the three UTS ports (mpi.go, hcmpi.go,
// hybrid.go): victim selection, the worker's private node stack with
// its PollInterval expansion slice and its bottom-of-stack release —
// the oldest nodes, statistically owning the largest subtrees, go to
// thieves — and the clock of the Table III profile.
//
// Accounting rule, the same in all three ports: a worker is in exactly
// one of work / overhead / search, and the clock is read only where it
// changes state — a frame (HCMPI) or busy stretch (MPI, hybrid) begins
// or ends, a release or a served steal request actually happens, the
// idle search begins or ends. Work is the busy interval minus the
// overhead intervals inside it. Nothing reads the clock per slice, so
// the profile does not book its own cost as work.

// epoch anchors now; only differences of now() values are used.
var epoch = time.Now()

// now is the profile's clock: monotonic time since process start (one
// clock read, where time.Now makes two).
func now() time.Duration { return time.Since(epoch) }

// lazyTimer times an interval that may turn out empty: a poll that
// finds nothing never calls start, and never reads the clock.
type lazyTimer struct {
	t0      time.Duration
	running bool
}

func (l *lazyTimer) start() {
	if !l.running {
		l.t0, l.running = now(), true
	}
}

// stop adds the interval since the first start, if any, to *into.
func (l *lazyTimer) stop(into *time.Duration) {
	if l.running {
		*into += now() - l.t0
	}
}

// pickVictim draws a uniform victim rank != rank (the classic UTS
// choice). size must be >= 2.
func pickVictim(rng *rand.Rand, rank, size int) int {
	v := rng.Intn(size - 1)
	if v >= rank {
		v++
	}
	return v
}

// nodeStack is a worker's depth-first stack. Exploration pushes and
// pops at the top; releases take from the bottom by advancing base, so
// nothing is copied out or shifted down. The room below base is
// reclaimed when the stack runs empty or has to grow.
type nodeStack struct {
	buf  []Node
	base int // buf[base:] is live
}

func (s *nodeStack) len() int { return len(s.buf) - s.base }

// reserve makes room for k more nodes on top and returns the index of
// the first. The caller fills buf[top:top+k].
//
//hclint:hotpath
func (s *nodeStack) reserve(k int) (top int) {
	if len(s.buf)+k > cap(s.buf) {
		s.grow(k)
	}
	top = len(s.buf)
	s.buf = s.buf[:top+k]
	return top
}

// grow is reserve's slow path: reclaim the room below base if that
// leaves the array at most half full, else move to one twice the size.
func (s *nodeStack) grow(k int) {
	live := s.buf[s.base:]
	dst := s.buf[:0]
	if need := len(live) + k; need > cap(s.buf)/2 {
		dst = make([]Node, 0, 2*need)
	}
	s.buf, s.base = append(dst, live...), 0
}

func (s *nodeStack) push(n Node) { s.buf[s.reserve(1)] = n }

// expand explores up to interval nodes from the top of the stack (the
// -i knob). It is the package's one traversal loop: the three ports and
// SeqCount all count the tree through it. A popped node's children are
// derived straight into the slots reserved for them, its own slot
// first, so the node is held in a local while they are written.
//
//hclint:hotpath
func (s *nodeStack) expand(cfg *Config, interval int, ctr *Counters) {
	for i := 0; i < interval && len(s.buf) > s.base; i++ {
		n := s.buf[len(s.buf)-1]
		s.buf = s.buf[:len(s.buf)-1]
		ctr.Nodes++
		if n.Depth > ctr.MaxDepth {
			ctr.MaxDepth = n.Depth
		}
		if k := cfg.NumChildren(n); k > 0 {
			top := s.reserve(k)
			for j := 0; j < k; j++ {
				cfg.childInto(&s.buf[top+j], &n, j)
			}
		}
	}
	if len(s.buf) == s.base {
		s.buf, s.base = s.buf[:0], 0
	}
}

// canRelease reports whether the stack can spare chunk nodes (the -c
// knob): it holds at least 2*chunk, so the owner always keeps a chunk
// for itself.
func (s *nodeStack) canRelease(chunk int) bool { return s.len() >= 2*chunk }

// releaseBottom removes the oldest chunk nodes and returns them as a
// view into the stack, valid until the stack is next pushed to. The
// caller has checked that the stack holds at least chunk nodes.
func (s *nodeStack) releaseBottom(chunk int) []Node {
	out := s.buf[s.base : s.base+chunk]
	s.base += chunk
	return out
}

// decode pushes the nodes of an EncodeNodes payload.
//
//hclint:hotpath
func (s *nodeStack) decode(b []byte) {
	k := len(b) / encodedNodeSize
	top := s.reserve(k)
	for i := 0; i < k; i++ {
		s.buf[top+i] = decodeNode(b[i*encodedNodeSize:])
	}
}
