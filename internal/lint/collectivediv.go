package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CollectiveDivergence enforces the third protocol obligation: every
// rank of a communicator must invoke the same collectives in the same
// order. A collective reached by only some ranks — or reached in a
// different order — deadlocks the job (the paper's hybrid phaser and
// the distsched barrier both assume SPMD-uniform collective order).
// The SPMD model makes this statically checkable: control flow may
// only diverge across ranks where a condition depends on the rank, so
// the analyzer taints rank-derived values (a forward may-analysis over
// the CFG seeded by `Rank()` calls and rank-named variables) and then
// audits every branch whose condition is tainted:
//
//   - if/else chains and switches: the *effective* collective sequence
//     of every branch — the branch's own collectives plus, unless the
//     branch terminates, everything after the construct — must be
//     identical. A missing else is the empty branch; a `switch rank`
//     compares only its written cases (SPMD switches enumerate the
//     world exhaustively by convention). The continuation-aware
//     comparison both clears the uniform `if rank==0 {…; Barrier();
//     return}; Barrier()` idiom and catches the early exit that
//     returns past a later collective.
//   - loops whose condition or operand is rank-derived must not
//     contain collectives (iteration counts differ per rank).
//
// Conditions that do not involve the rank are assumed SPMD-uniform:
// all ranks computed them from the same replicated data, so both
// sides stay collectively consistent without analysis.
var CollectiveDivergence = &Analyzer{
	Name:      "collective-divergence",
	Doc:       "collective call sequences must not diverge across rank-dependent branches",
	RunModule: runCollectiveDivergence,
}

// collectiveNames are the module's collective operations (blocking and
// nonblocking), matched on receivers that expose a Rank method.
var collectiveNames = map[string]bool{
	"Barrier": true, "Bcast": true, "Reduce": true, "Allreduce": true,
	"Scan": true, "Scatter": true, "Gather": true, "Allgather": true,
	"Fence": true,
}

// collectiveCallOf reports whether call invokes a collective: a method
// in the name set whose receiver type (or the Win's owning comm
// convention, for Fence) also has a Rank method — the signature of a
// communicator-like type.
func collectiveCallOf(p *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p, call)
	if fn == nil || !collectiveNames[fn.Name()] {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil {
		return "", false
	}
	if named.Obj().Name() == "Win" && fn.Name() == "Fence" {
		return fn.Name(), true
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "Rank" {
			return fn.Name(), true
		}
	}
	return "", false
}

// rankNamed reports whether a variable's name marks it as the rank by
// convention, for taint sources the dataflow can't see (struct fields
// set at init, parameters).
func rankNamed(name string) bool {
	l := strings.ToLower(name)
	return l == "rank" || l == "myrank" || l == "selfrank"
}

func runCollectiveDivergence(pkgs []*Package) []Finding {
	g, _ := factsFor(pkgs)
	var out []Finding
	for _, n := range g.SortedNodes() {
		if n.Body != nil {
			out = append(out, divScanBody(n)...)
		}
	}
	return dedupe(out)
}

func divScanBody(n *CGNode) []Finding {
	p := n.Pkg
	cfg := BuildCFG(n.Body)

	// Taint: forward may-analysis, facts are rank-derived locals.
	exprTainted := func(e ast.Expr, facts factSet) bool {
		tainted := false
		ast.Inspect(e, func(node ast.Node) bool {
			if tainted {
				return false
			}
			switch v := node.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if fn := calleeFunc(p, v); fn != nil && fn.Name() == "Rank" && len(v.Args) == 0 {
					tainted = true
					return false
				}
			case *ast.Ident:
				if w, ok := p.Info.Uses[v].(*types.Var); ok {
					if facts.Has(w) || rankNamed(w.Name()) {
						tainted = true
						return false
					}
				}
			}
			return true
		})
		return tainted
	}
	transferNode := func(node ast.Node, facts factSet) factSet {
		assign := func(lhs ast.Expr, tainted bool) {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				return
			}
			v := localVarOf(p, id)
			if v == nil {
				return
			}
			if tainted {
				facts = facts.With(v)
			} else {
				facts = facts.Without(v)
			}
		}
		switch v := node.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) == len(v.Rhs) {
				for i := range v.Lhs {
					assign(v.Lhs[i], exprTainted(v.Rhs[i], facts))
				}
			} else if len(v.Rhs) == 1 {
				t := exprTainted(v.Rhs[0], facts)
				for _, lhs := range v.Lhs {
					assign(lhs, t)
				}
			}
		case *ast.DeclStmt:
			if gd, ok := v.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, name := range vs.Names {
							t := false
							if i < len(vs.Values) {
								t = exprTainted(vs.Values[i], facts)
							} else if len(vs.Values) == 1 {
								t = exprTainted(vs.Values[0], facts)
							}
							assign(name, t)
						}
					}
				}
			}
		}
		return facts
	}
	in := solveDF(cfg, transferNode)

	taintedAt := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		facts, ok := factsAt(cfg, in, e, transferNode)
		if !ok {
			// Not a CFG-indexed node (e.g. a range operand shared with
			// the synthetic bind): fall back to the block's input.
			if b := cfg.BlockOf(e); b != nil {
				facts = in[b]
			}
		}
		return exprTainted(e, facts)
	}

	w := &divWalker{p: p, taintedAt: taintedAt}
	w.stmts(n.Body.List, nil)
	return w.out
}

// divWalker audits rank-conditioned control structures. rest carries
// the statement suffixes of every enclosing block, for the early-exit
// check ("are there collectives after this construct?").
type divWalker struct {
	p         *Package
	taintedAt func(ast.Expr) bool
	out       []Finding
}

func (w *divWalker) stmts(list []ast.Stmt, rest [][]ast.Stmt) {
	for i, s := range list {
		w.stmt(s, append(rest, list[i+1:]))
	}
}

func (w *divWalker) stmt(s ast.Stmt, rest [][]ast.Stmt) {
	switch v := s.(type) {
	case *ast.BlockStmt:
		w.stmts(v.List, rest)
	case *ast.LabeledStmt:
		w.stmt(v.Stmt, rest)
	case *ast.IfStmt:
		w.ifChain(v, rest)
	case *ast.SwitchStmt:
		tainted := w.taintedAt(v.Tag)
		var branches [][]ast.Stmt
		hasDefault := false
		for _, c := range v.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				if w.taintedAt(e) {
					tainted = true
				}
			}
			if cc.List == nil {
				hasDefault = true
			}
			branches = append(branches, cc.Body)
		}
		// No implicit default branch: an SPMD `switch rank {...}`
		// enumerates the world exhaustively by convention, so only the
		// written cases are compared (unlike if, where both outcomes of
		// the condition are always reachable).
		_ = hasDefault
		if tainted {
			w.judge(v.Pos(), "switch", branches, rest)
		}
		for _, c := range v.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, rest)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range v.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, rest)
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			w.stmts(c.(*ast.CommClause).Body, rest)
		}
	case *ast.ForStmt:
		if w.taintedAt(v.Cond) {
			if seq := w.collSeq(v.Body); len(seq) > 0 {
				w.report(v.Pos(),
					"collective %s inside a loop whose bound is rank-derived: iteration counts differ per rank and the job deadlocks",
					seq[0])
			}
		}
		w.stmts(v.Body.List, rest)
	case *ast.RangeStmt:
		if w.taintedAt(v.X) {
			if seq := w.collSeq(v.Body); len(seq) > 0 {
				w.report(v.Pos(),
					"collective %s inside a range over a rank-derived operand: iteration counts differ per rank and the job deadlocks",
					seq[0])
			}
		}
		w.stmts(v.Body.List, rest)
	}
}

// ifChain flattens if / else-if / else into parallel branches, judges
// the chain once if any condition is rank-tainted, then recurses.
func (w *divWalker) ifChain(v *ast.IfStmt, rest [][]ast.Stmt) {
	var branches [][]ast.Stmt
	tainted := false
	pos := v.Pos()
	cur := v
	for {
		if w.taintedAt(cur.Cond) {
			tainted = true
		}
		branches = append(branches, cur.Body.List)
		if cur.Else == nil {
			branches = append(branches, nil) // implicit empty else
			break
		}
		if next, ok := cur.Else.(*ast.IfStmt); ok {
			cur = next
			continue
		}
		branches = append(branches, cur.Else.(*ast.BlockStmt).List)
		break
	}
	if tainted {
		w.judge(pos, "if", branches, rest)
	}
	for _, b := range branches {
		w.stmts(b, rest)
	}
}

// judge compares the *effective* collective sequence of each branch of
// a tainted construct: the branch's own collectives, followed — unless
// the branch terminates (return/panic/os.Exit) — by the collectives of
// the statements after the construct (innermost enclosing block first).
// This makes the common SPMD idiom
//
//	if rank == 0 { …; Barrier(); return }
//	Barrier()
//
// correctly uniform, while still catching both a plain skipped
// collective and the early-exit that returns past a later one.
func (w *divWalker) judge(pos token.Pos, kind string, branches, rest [][]ast.Stmt) {
	var restSeq []string
	for i := len(rest) - 1; i >= 0; i-- { // innermost suffix executes first
		for _, s := range rest[i] {
			restSeq = append(restSeq, w.collSeq(s)...)
		}
	}
	eff := make([][]string, len(branches))
	for i, b := range branches {
		eff[i] = w.seqOfList(b)
		if !listTerminates(b) {
			eff[i] = append(append([]string(nil), eff[i]...), restSeq...)
		}
	}
	for i := 1; i < len(eff); i++ {
		if !equalSeq(eff[0], eff[i]) {
			w.report(pos,
				"collective sequence diverges across rank-dependent %s branches: [%s] vs [%s] — every rank must invoke the same collectives in the same order",
				kind, strings.Join(eff[0], " "), strings.Join(eff[i], " "))
			return
		}
	}
}

func (w *divWalker) seqOfList(list []ast.Stmt) []string {
	var seq []string
	for _, s := range list {
		seq = append(seq, w.collSeq(s)...)
	}
	return seq
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// listTerminates reports whether a branch unconditionally leaves the
// function (or the enclosing construct): its last statement is a
// return/branch/panic or a recognized process terminator.
func listTerminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	last := list[len(list)-1]
	if terminates(last) {
		return true
	}
	if es, ok := last.(*ast.ExprStmt); ok {
		if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
			return terminalCall(call)
		}
	}
	return false
}

// collSeq linearizes the collective calls of a subtree, skipping
// nested function literals.
func (w *divWalker) collSeq(node ast.Node) []string {
	var seq []string
	if node == nil {
		return nil
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := collectiveCallOf(w.p, call); ok {
				seq = append(seq, name)
			}
		}
		return true
	})
	return seq
}

func (w *divWalker) report(pos token.Pos, format string, args ...any) {
	w.out = append(w.out, w.p.findingf("collective-divergence", pos, format, args...))
}
