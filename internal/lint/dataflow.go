package lint

import "go/ast"

// A small forward may-dataflow framework over the CFGs of cfg.go, the
// one mode buffer-reuse and collective-divergence need. Facts are
// opaque comparable keys (the analyzers use *types.Var and tiny structs
// of them); a factSet is the lattice element. Blocks meet by union,
// and every block starts empty.
//
// The solver runs a round-robin worklist to fixpoint. Analyzers supply
// a per-node transfer, which the solver folds across a block's Nodes
// in execution order. factsAt replays a block's prefix to recover the
// facts holding immediately before one node — that is how condition
// expressions are judged at their program point.

// factSet is one lattice element: a set of facts.
type factSet struct {
	m map[any]bool
}

func emptyFacts() factSet { return factSet{} }

// Has reports fact membership.
func (s factSet) Has(k any) bool { return s.m[k] }

// With returns s ∪ {k} (a copy; s is not mutated).
func (s factSet) With(k any) factSet {
	if s.m[k] {
		return s
	}
	return s.clone().add(k)
}

// Without returns s \ {k} (a copy; s is not mutated).
func (s factSet) Without(k any) factSet {
	if !s.m[k] {
		return s
	}
	c := s.clone()
	delete(c.m, k)
	return c
}

func (s factSet) clone() factSet {
	c := factSet{m: make(map[any]bool, len(s.m))}
	for k := range s.m {
		c.m[k] = true
	}
	return c
}

func (s factSet) add(k any) factSet {
	if s.m == nil {
		s.m = map[any]bool{}
	}
	s.m[k] = true
	return s
}

func (s factSet) equal(o factSet) bool {
	if len(s.m) != len(o.m) {
		return false
	}
	for k := range s.m {
		if !o.m[k] {
			return false
		}
	}
	return true
}

func union(a, b factSet) factSet {
	if len(a.m) == 0 {
		return b
	}
	out := a.clone()
	for k := range b.m {
		out.add(k)
	}
	return out
}

// nodeTransfer maps the facts holding before one CFG node to those
// holding after it.
type nodeTransfer func(n ast.Node, facts factSet) factSet

// solveDF runs the forward may-analysis to fixpoint and returns the
// facts holding at the top of each block. Nothing holds at Entry.
func solveDF(cfg *CFG, transfer nodeTransfer) map[*CFGBlock]factSet {
	in := make(map[*CFGBlock]factSet, len(cfg.Blocks))
	out := make(map[*CFGBlock]factSet, len(cfg.Blocks))
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.Blocks {
			inb := emptyFacts()
			if b != cfg.Entry {
				for _, e := range b.Preds {
					inb = union(inb, out[e])
				}
			}
			in[b] = inb
			o := inb
			for _, n := range b.Nodes {
				o = transfer(n, o)
			}
			if !o.equal(out[b]) {
				out[b] = o
				changed = true
			}
		}
	}
	return in
}

// factsAt replays the solved analysis inside node's block and returns
// the facts holding immediately before node. Returns false when the
// node was not indexed.
func factsAt(cfg *CFG, in map[*CFGBlock]factSet, node ast.Node, transfer nodeTransfer) (factSet, bool) {
	b := cfg.BlockOf(node)
	if b == nil {
		return emptyFacts(), false
	}
	facts := in[b]
	for _, n := range b.Nodes {
		if n == node {
			return facts, true
		}
		facts = transfer(n, facts)
	}
	return facts, false
}
