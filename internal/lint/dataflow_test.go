package lint

import (
	"go/ast"
	"testing"
)

// The dataflow tests interpret a toy fact language over plain parsed
// bodies (no type info needed): a call to a function named genX adds
// the fact "genX" (genTransfer below).

// callName returns the callee ident name of an ExprStmt node, or "".
func callName(n ast.Node) string {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return ""
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func TestFactSetOps(t *testing.T) {
	s := emptyFacts().With("a").With("b")
	if !s.Has("a") || !s.Has("b") || s.Has("c") || len(s.m) != 2 {
		t.Fatalf("With: %v", s)
	}
	if w := s.Without("a"); w.Has("a") || !w.Has("b") || !s.Has("a") {
		t.Fatal("Without must not mutate the receiver")
	}
	u := union(emptyFacts().With("a"), emptyFacts().With("b"))
	if !u.Has("a") || !u.Has("b") {
		t.Fatalf("union: %v", u)
	}
	if !emptyFacts().With("a").equal(emptyFacts().With("a")) {
		t.Fatal("equal sets compare unequal")
	}
}

// genTransfer adds the callee name as a fact at every genX() call.
func genTransfer(n ast.Node, facts factSet) factSet {
	if name := callName(n); name != "" && name != "probe" {
		facts = facts.With(name)
	}
	return facts
}

func TestForwardMayVsMustAtBranchJoin(t *testing.T) {
	body := parseBody(t, `
		if c {
			genA()
			genCommon()
		} else {
			genB()
			genCommon()
		}
		probe()
	`)
	cfg := BuildCFG(body)
	probe := findCall(t, body, "probe")

	// MAY (union): anything generated on some path reaches the join.
	in := solveDF(cfg, genTransfer)
	facts, ok := factsAt(cfg, in, probe, genTransfer)
	if !ok {
		t.Fatal("probe not found in CFG")
	}
	for _, want := range []string{"genA", "genB", "genCommon"} {
		if !facts.Has(want) {
			t.Errorf("may-analysis lost %s at join", want)
		}
	}
}

func TestForwardLoopBackEdge(t *testing.T) {
	body := parseBody(t, `
		for i := 0; i < n; i++ {
			genLoop()
		}
		probe()
	`)
	cfg := BuildCFG(body)
	in := solveDF(cfg, genTransfer)

	// The fact generated in the body must flow around the back edge to
	// the loop condition (iteration ≥ 2 sees it).
	var fr *ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok {
			fr = f
			return false
		}
		return true
	})
	headFacts, ok := factsAt(cfg, in, fr.Cond, genTransfer)
	if !ok || !headFacts.Has("genLoop") {
		t.Fatalf("back edge did not carry the loop fact to the head: %v", headFacts)
	}
	// May-analysis: the loop may run zero times, yet the fact still MAY
	// hold after it.
	probeFacts, _ := factsAt(cfg, in, findCall(t, body, "probe"), genTransfer)
	if !probeFacts.Has("genLoop") {
		t.Error("may-analysis lost the loop fact after the loop")
	}
}

func TestUnreachableBlocksDoNotPollute(t *testing.T) {
	body := parseBody(t, `
		if c {
			return
		}
		probe()
		return
		genDead()
		probe2()
	`)
	cfg := BuildCFG(body)
	in := solveDF(cfg, genTransfer)
	facts, ok := factsAt(cfg, in, findCall(t, body, "probe"), genTransfer)
	if !ok {
		t.Fatal("probe not indexed")
	}
	if facts.Has("genDead") {
		t.Error("a fact generated in unreachable code leaked into live blocks")
	}
}
