package lint

import (
	"go/token"
	"go/types"
	"sort"
)

// LockOrder looks for the two classic mutex hazards over the module
// call graph:
//
//  1. Lock-order cycles. Every critical section contributes
//     acquisition edges A → B when B is locked (directly, or anywhere
//     in a called function) while A is held. A cycle in that relation
//     means two goroutines can acquire the locks in opposite orders
//     and deadlock. Identity is per declared mutex variable or field
//     (lock *classes*, not instances), so a self-edge A → A is not
//     reported: recursive acquisition of the same instance is a bug
//     the runtime would catch instantly at test time, while two
//     instances of one class locked in sequence (e.g. rank-ordered
//     peer locks) are a legitimate pattern the class-level analysis
//     cannot split.
//
//  2. Locks held across blocking operations. A critical section that
//     performs a channel operation, select, sleep, or WaitGroup.Wait —
//     or calls a function that can — serializes every other goroutine
//     needing that mutex behind an unbounded wait. Cond.Wait is exempt:
//     it releases the lock it waits under.
var LockOrder = &Analyzer{
	Name: "lock-order",
	Doc:  "lock-order cycles and locks held across blocking operations",
	RunModule: func(pkgs []*Package) []Finding {
		return runLockOrder(pkgs)
	},
}

// lockEdge is one "B acquired while A held" observation.
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos
	node     *CGNode
	via      string // callee name when the acquisition is indirect
}

func runLockOrder(pkgs []*Package) []Finding {
	_, lf := factsFor(pkgs)
	var out []Finding

	// Held-across-blocking, straight from the critical sections.
	for _, s := range lf.sections {
		name := lockName(s.lock)
		for _, op := range s.ops {
			if op.kind == opCondWait && lf.condReleases(op.lock, s.lock) {
				continue // Cond.Wait releases the lock it waits under
			}
			out = append(out, s.node.Pkg.findingf("lock-order", op.pos,
				"mutex %s held across %s in %s", name, op.kind, s.node.Name))
		}
		for _, e := range s.calls {
			if e.Go {
				continue
			}
			if e.FuncVal {
				// Contract boundary, as in nonblocking: a stored function
				// value resolves to every address-taken func of its
				// signature in the module, so one call under a lock would
				// be charged with whatever any of them does.
				continue
			}
			if s.lock != nil && lf.unlocks[e.To][s.lock] {
				// Lock-aware callee (the *Locked helper convention): it
				// unlocks this very mutex itself, so whatever blocking it
				// does happens with the lock released.
				continue
			}
			if !lf.callBlocksHolding(e.To, s.lock) {
				continue
			}
			out = append(out, s.node.Pkg.findingf("lock-order", e.Site.Pos(),
				"mutex %s held across call to %s, which can block (%s)",
				name, e.To.Name, lf.blockingWitness(e.To)))
		}
	}

	// Acquisition edges and cycle detection over lock classes.
	var edges []lockEdge
	for _, s := range lf.sections {
		if s.lock == nil {
			continue
		}
		for _, n := range s.nested {
			if n.lock != nil && n.lock != s.lock {
				edges = append(edges, lockEdge{from: s.lock, to: n.lock, pos: n.pos, node: s.node})
			}
		}
		for _, e := range s.calls {
			if e.Go {
				continue
			}
			for v := range lf.acquires[e.To] {
				if v != s.lock {
					edges = append(edges, lockEdge{from: s.lock, to: v, pos: e.Site.Pos(), node: s.node, via: e.To.Name})
				}
			}
		}
	}
	for _, e := range cyclicEdges(edges) {
		msg := "lock-order cycle: %s acquired while %s is held"
		if e.via != "" {
			out = append(out, e.node.Pkg.findingf("lock-order", e.pos,
				msg+" (via call to %s); another path acquires them in the opposite order",
				lockName(e.to), lockName(e.from), e.via))
		} else {
			out = append(out, e.node.Pkg.findingf("lock-order", e.pos,
				msg+"; another path acquires them in the opposite order",
				lockName(e.to), lockName(e.from)))
		}
	}
	return dedupe(out)
}

// cyclicEdges returns the edges that participate in a cycle: both
// endpoints in one strongly connected component of ≥2 lock classes.
func cyclicEdges(edges []lockEdge) []lockEdge {
	adj := map[*types.Var][]*types.Var{}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	// Tarjan SCC.
	index := map[*types.Var]int{}
	low := map[*types.Var]int{}
	onStack := map[*types.Var]bool{}
	comp := map[*types.Var]int{}
	var stack []*types.Var
	next, ncomp := 0, 0
	var strong func(v *types.Var)
	strong = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			size := 0
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				size++
				if w == v {
					break
				}
			}
			_ = size
			ncomp++
		}
	}
	var verts []*types.Var
	seen := map[*types.Var]bool{}
	for _, e := range edges {
		for _, v := range []*types.Var{e.from, e.to} {
			if !seen[v] {
				seen[v] = true
				verts = append(verts, v)
			}
		}
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i].Pos() < verts[j].Pos() })
	for _, v := range verts {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	compSize := map[int]int{}
	for _, c := range comp {
		compSize[c]++
	}
	var out []lockEdge
	for _, e := range edges {
		if comp[e.from] == comp[e.to] && compSize[comp[e.from]] > 1 {
			out = append(out, e)
		}
	}
	return out
}

// lockName renders a mutex identity for messages.
func lockName(v *types.Var) string {
	if v == nil {
		return "(unresolved mutex)"
	}
	return v.Name()
}
