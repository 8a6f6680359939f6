package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Blocking facts shared by the nonblocking and lock-order analyzers:
// which primitive operations in a function can block, which mutexes a
// function acquires, what runs inside each critical section, and which
// mutexes are "contended" (some critical section on them can block or
// nests another lock). All facts are computed over the conservative
// call graph; `go`-launched edges never propagate blocking, because a
// spawn hands the callee's blocking behavior to another goroutine.

// opKind classifies one potentially-blocking primitive.
type opKind int

const (
	opChanSend  opKind = iota // ch <- v outside a select
	opChanRecv                // <-ch outside a select
	opSelect                  // select without a default clause
	opRangeChan               // for range over a channel
	opSleep                   // time.Sleep
	opWGWait                  // sync.WaitGroup.Wait
	opCondWait                // sync.Cond.Wait
	opLock                    // Mutex.Lock / RWMutex.Lock / RWMutex.RLock
)

func (k opKind) String() string {
	switch k {
	case opChanSend:
		return "channel send"
	case opChanRecv:
		return "channel receive"
	case opSelect:
		return "select without default"
	case opRangeChan:
		return "range over channel"
	case opSleep:
		return "time.Sleep"
	case opWGWait:
		return "WaitGroup.Wait"
	case opCondWait:
		return "Cond.Wait"
	case opLock:
		return "mutex acquisition"
	}
	return "blocking op"
}

// blockOp is one potentially-blocking primitive found in a function
// body. For opLock, lock carries the mutex identity when resolvable (a
// struct field or variable of sync.Mutex/RWMutex type); nil means the
// receiver could not be resolved, which analyses treat conservatively.
type blockOp struct {
	pos   token.Pos
	kind  opKind
	lock  *types.Var
	rlock bool
}

// hard reports whether the op blocks regardless of lock contention:
// everything except a mutex acquisition (those are judged separately by
// the contended-mutex analysis).
func (o blockOp) hard() bool { return o.kind != opLock }

// syncCall classifies a call expression as one of the recognized
// blocking primitives from time and sync. Returns ok=false for
// everything else (including TryLock, which never blocks).
func syncCall(p *Package, call *ast.CallExpr) (kind opKind, recvExpr ast.Expr, rlock bool, ok bool) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return 0, nil, false, false
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return opSleep, nil, false, true
		}
	case "sync":
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil || sel == nil {
			return 0, nil, false, false
		}
		recv := typeBase(derefType(sig.Recv().Type()))
		switch {
		case fn.Name() == "Lock" && (recv == "Mutex" || recv == "RWMutex"):
			return opLock, sel.X, false, true
		case fn.Name() == "RLock" && recv == "RWMutex":
			return opLock, sel.X, true, true
		case fn.Name() == "Wait" && recv == "WaitGroup":
			return opWGWait, sel.X, false, true
		case fn.Name() == "Wait" && recv == "Cond":
			return opCondWait, sel.X, false, true
		}
	}
	return 0, nil, false, false
}

// unlockCall recognizes Mutex.Unlock / RWMutex.Unlock / RWMutex.RUnlock
// and returns the receiver expression.
func unlockCall(p *Package, call *ast.CallExpr) (recvExpr ast.Expr, runlock, ok bool) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sel == nil {
		return nil, false, false
	}
	recv := typeBase(derefType(sig.Recv().Type()))
	switch {
	case fn.Name() == "Unlock" && (recv == "Mutex" || recv == "RWMutex"):
		return sel.X, false, true
	case fn.Name() == "RUnlock" && recv == "RWMutex":
		return sel.X, true, true
	}
	return nil, false, false
}

// lockVarOf resolves a mutex receiver expression to a stable identity:
// the struct field it selects, the package-level variable, or the local
// variable. Locks reached through an embedded sync.Mutex (`s.Lock()`)
// resolve to the embedded field. nil when the expression is anything
// fancier (map element, function result, ...).
func lockVarOf(p *Package, expr ast.Expr) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
			return nil
		}
		if v, ok := p.Info.Uses[e.Sel].(*types.Var); ok {
			return v // qualified package-level var
		}
	case *ast.Ident:
		if v, ok := p.Info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return lockVarOf(p, e.X)
		}
	}
	return nil
}

// lockIdentity resolves the mutex acquired by a sync method call,
// following the selection's field path so `s.Lock()` on a struct with
// an embedded sync.Mutex identifies the embedded field, not s.
func lockIdentity(p *Package, call *ast.CallExpr, recvExpr ast.Expr) *types.Var {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := p.Info.Selections[sel]; ok {
			if idx := s.Index(); len(idx) > 1 {
				// Path through embedded fields: the last index is the
				// method, the one before it is the mutex-typed field.
				t := derefType(s.Recv())
				var field *types.Var
				for _, i := range idx[:len(idx)-1] {
					st, ok := derefType(t).Underlying().(*types.Struct)
					if !ok {
						return nil
					}
					field = st.Field(i)
					t = field.Type()
				}
				return field
			}
		}
	}
	return lockVarOf(p, recvExpr)
}

// scanOps finds every potentially-blocking primitive in root (a subtree
// of n's body), skipping nested function literals (they are their own
// call-graph nodes). Channel operations that are the communication
// clause of a select are attributed to the select, not double-counted.
func scanOps(n *CGNode, root ast.Node) []blockOp {
	p := n.Pkg
	var ops []blockOp
	selComm := map[ast.Node]bool{}
	ast.Inspect(root, func(node ast.Node) bool {
		if sel, ok := node.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm != nil {
					markComm(selComm, cc.Comm)
				}
			}
		}
		return true
	})
	var walk func(node ast.Node)
	walk = func(node ast.Node) {
		ast.Inspect(node, func(inner ast.Node) bool {
			switch v := inner.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				// The spawned call runs elsewhere; argument expressions
				// are still evaluated here.
				for _, a := range v.Call.Args {
					walk(a)
				}
				return false
			case *ast.SelectStmt:
				if !selHasDefault(v) {
					ops = append(ops, blockOp{pos: v.Pos(), kind: opSelect})
				}
			case *ast.SendStmt:
				if !selComm[v] {
					ops = append(ops, blockOp{pos: v.Arrow, kind: opChanSend})
				}
			case *ast.UnaryExpr:
				if v.Op == token.ARROW && !selComm[v] {
					ops = append(ops, blockOp{pos: v.OpPos, kind: opChanRecv})
				}
			case *ast.RangeStmt:
				if tv, ok := p.Info.Types[v.X]; ok {
					if _, ok := tv.Type.Underlying().(*types.Chan); ok {
						ops = append(ops, blockOp{pos: v.For, kind: opRangeChan})
					}
				}
			case *ast.CallExpr:
				if kind, recv, rl, ok := syncCall(p, v); ok {
					op := blockOp{pos: v.Pos(), kind: kind, rlock: rl}
					switch kind {
					case opLock:
						op.lock = lockIdentity(p, v, recv)
					case opCondWait:
						// For Cond.Wait, lock carries the *condition
						// variable*; the cond→mutex association resolves
						// it to the released mutex later.
						op.lock = lockVarOf(p, recv)
					}
					ops = append(ops, op)
				}
			}
			return true
		})
	}
	walk(root)
	return ops
}

func markComm(set map[ast.Node]bool, comm ast.Stmt) {
	switch c := comm.(type) {
	case *ast.SendStmt:
		set[c] = true
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			set[u] = true
		}
	case *ast.AssignStmt:
		for _, r := range c.Rhs {
			if u, ok := ast.Unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				set[u] = true
			}
		}
	}
}

func selHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// critSection is one lock-held region: everything observed between a
// Lock/RLock and the matching Unlock (or the end of the function when
// the unlock is deferred).
type critSection struct {
	lock   *types.Var // nil when the receiver was unresolvable
	rlock  bool
	pos    token.Pos // the acquisition site
	node   *CGNode   // function containing the section
	ops    []blockOp // hard-blocking ops inside (not nested locks)
	nested []blockOp // nested lock acquisitions inside
	calls  []CGEdge  // non-go call edges inside
}

// lockFacts aggregates module-wide blocking knowledge.
type lockFacts struct {
	graph        *CallGraph
	ops          map[*CGNode][]blockOp
	sections     []*critSection
	canBlock     map[*CGNode]bool                // any hard op, incl. Cond.Wait
	canBlockHard map[*CGNode]bool                // hard op other than Cond.Wait
	condWaits    map[*CGNode]map[*types.Var]bool // cond vars waited on (transitively)
	condUnknown  map[*CGNode]bool                // reaches Cond.Wait on an unresolvable cond
	unlocks      map[*CGNode]map[*types.Var]bool // mutexes the function directly unlocks
	acquires     map[*CGNode]map[*types.Var]bool // transitive, non-go edges
	contended    map[*types.Var]bool
	condOwner    map[*types.Var]*types.Var // cond var → mutex from sync.NewCond(&mu)
}

// factsFor builds (or returns the cached) call graph and lock facts for
// a load. RunAll invokes module analyzers back to back over the same
// package slice; the cache makes the graph construction pay once.
var factsCache struct {
	key   *Package
	n     int
	graph *CallGraph
	facts *lockFacts
}

func factsFor(pkgs []*Package) (*CallGraph, *lockFacts) {
	if len(pkgs) > 0 && factsCache.key == pkgs[0] && factsCache.n == len(pkgs) {
		return factsCache.graph, factsCache.facts
	}
	g := BuildCallGraph(pkgs)
	f := buildLockFacts(g, pkgs)
	if len(pkgs) > 0 {
		factsCache.key, factsCache.n = pkgs[0], len(pkgs)
		factsCache.graph, factsCache.facts = g, f
	}
	return g, f
}

func buildLockFacts(g *CallGraph, pkgs []*Package) *lockFacts {
	lf := &lockFacts{
		graph:        g,
		ops:          map[*CGNode][]blockOp{},
		canBlock:     map[*CGNode]bool{},
		canBlockHard: map[*CGNode]bool{},
		condWaits:    map[*CGNode]map[*types.Var]bool{},
		condUnknown:  map[*CGNode]bool{},
		unlocks:      map[*CGNode]map[*types.Var]bool{},
		acquires:     map[*CGNode]map[*types.Var]bool{},
		contended:    map[*types.Var]bool{},
		condOwner:    map[*types.Var]*types.Var{},
	}
	lf.scanCondOwners(pkgs)
	for _, n := range g.Nodes {
		if n.Body != nil {
			lf.ops[n] = scanOps(n, n.Body)
			lf.scanSections(n)
			lf.scanUnlocks(n)
		}
	}
	lf.fixpoint()
	lf.computeContended()
	return lf
}

// scanCondOwners records the cond→mutex association established by every
// sync.NewCond(&mu) site in the module: assignments, var declarations,
// and keyed composite literals. A Cond.Wait whose receiver maps to the
// section's own mutex releases that mutex while parked, so it is not
// "held across" anything; a cond owned by a different mutex is.
func (lf *lockFacts) scanCondOwners(pkgs []*Package) {
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				switch v := node.(type) {
				case *ast.AssignStmt:
					for i, rhs := range v.Rhs {
						if mu := newCondArg(p, rhs); mu != nil && i < len(v.Lhs) {
							if cv := condLHSVar(p, v.Lhs[i]); cv != nil {
								lf.condOwner[cv] = mu
							}
						}
					}
				case *ast.ValueSpec:
					for i, val := range v.Values {
						if mu := newCondArg(p, val); mu != nil && i < len(v.Names) {
							if cv, ok := p.Info.Defs[v.Names[i]].(*types.Var); ok {
								lf.condOwner[cv] = mu
							}
						}
					}
				case *ast.KeyValueExpr:
					if mu := newCondArg(p, v.Value); mu != nil {
						if id, ok := v.Key.(*ast.Ident); ok {
							if cv, ok := p.Info.Uses[id].(*types.Var); ok {
								lf.condOwner[cv] = mu
							}
						}
					}
				}
				return true
			})
		}
	}
}

// newCondArg returns the mutex variable when e is sync.NewCond(&mu) (or
// sync.NewCond(mu) on an already-pointer mutex), nil otherwise.
func newCondArg(p *Package, e ast.Expr) *types.Var {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "NewCond" {
		return nil
	}
	return lockVarOf(p, call.Args[0])
}

// condLHSVar resolves the variable a NewCond result is stored into,
// covering := definitions (Defs) as well as plain assignments.
func condLHSVar(p *Package, e ast.Expr) *types.Var {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if v, ok := p.Info.Defs[id].(*types.Var); ok {
			return v
		}
	}
	return lockVarOf(p, e)
}

// scanUnlocks records the mutexes n's own body unlocks directly. A
// callee that unlocks the caller's held mutex is lock-aware (the
// *Locked-suffix helper convention): it takes responsibility for the
// mutex and its blocking happens with the lock released, so the
// held-across-call rule exempts such edges.
func (lf *lockFacts) scanUnlocks(n *CGNode) {
	u := map[*types.Var]bool{}
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			if recv, _, ok := unlockCall(n.Pkg, call); ok {
				if v := lockVarOf(n.Pkg, recv); v != nil {
					u[v] = true
				}
			}
		}
		return true
	})
	if len(u) > 0 {
		lf.unlocks[n] = u
	}
}

// scanSections walks n's body statement by statement, tracking open
// critical sections. Sections opened inside a nested block are closed
// when the block exits (branch-local copies of the held set), so the
// canonical patterns — `mu.Lock(); defer mu.Unlock()` and straight-line
// Lock/Unlock pairs, possibly inside a branch — are tracked exactly;
// locks threaded through helper returns are not (documented in
// DESIGN.md §10).
func (lf *lockFacts) scanSections(n *CGNode) {
	p := n.Pkg
	edgesAt := map[ast.Node][]CGEdge{}
	for _, e := range n.Out {
		edgesAt[e.Site] = append(edgesAt[e.Site], e)
	}

	attribute := func(held []*critSection, sub ast.Node) {
		if len(held) == 0 || sub == nil {
			return
		}
		ops := scanOps(n, sub)
		var edges []CGEdge
		ast.Inspect(sub, func(inner ast.Node) bool {
			if _, ok := inner.(*ast.FuncLit); ok {
				return false
			}
			if _, ok := inner.(*ast.GoStmt); ok {
				// spawned work doesn't run under the lock
				return false
			}
			if es, ok := edgesAt[inner]; ok {
				edges = append(edges, es...)
			}
			return true
		})
		for _, s := range held {
			for _, op := range ops {
				if op.kind == opLock {
					s.nested = append(s.nested, op)
				} else {
					s.ops = append(s.ops, op)
				}
			}
			s.calls = append(s.calls, edges...)
		}
	}

	var walkStmts func(stmts []ast.Stmt, held []*critSection)
	walkStmts = func(stmts []ast.Stmt, held []*critSection) {
		for _, stmt := range stmts {
			switch s := stmt.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
					if kind, recv, rl, ok := syncCall(p, call); ok && kind == opLock {
						sec := &critSection{
							lock: lockIdentity(p, call, recv), rlock: rl,
							pos: call.Pos(), node: n,
						}
						for _, h := range held {
							h.nested = append(h.nested, blockOp{pos: call.Pos(), kind: opLock, lock: sec.lock, rlock: rl})
						}
						lf.sections = append(lf.sections, sec)
						held = append(held[:len(held):len(held)], sec)
						continue
					}
					if recv, rl, ok := unlockCall(p, call); ok {
						v := lockVarOf(p, recv)
						for i := len(held) - 1; i >= 0; i-- {
							if held[i].lock == v && held[i].rlock == rl {
								held = append(held[:i:i], held[i+1:]...)
								break
							}
						}
						continue
					}
				}
				attribute(held, s)
			case *ast.DeferStmt:
				if _, _, ok := unlockCall(p, s.Call); ok {
					continue // keeps the section open to function end
				}
				attribute(held, s)
			case *ast.BlockStmt:
				walkStmts(s.List, held)
			case *ast.LabeledStmt:
				walkStmts([]ast.Stmt{s.Stmt}, held)
			case *ast.IfStmt:
				attribute(held, s.Init)
				attribute(held, s.Cond)
				walkStmts(s.Body.List, held)
				if s.Else != nil {
					walkStmts([]ast.Stmt{s.Else}, held)
				}
			case *ast.ForStmt:
				attribute(held, s.Init)
				attribute(held, s.Cond)
				attribute(held, s.Post)
				walkStmts(s.Body.List, held)
			case *ast.RangeStmt:
				attribute(held, s.X)
				if tv, ok := p.Info.Types[s.X]; ok && len(held) > 0 {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						for _, h := range held {
							h.ops = append(h.ops, blockOp{pos: s.For, kind: opRangeChan})
						}
					}
				}
				walkStmts(s.Body.List, held)
			case *ast.SwitchStmt:
				attribute(held, s.Init)
				attribute(held, s.Tag)
				for _, c := range s.Body.List {
					walkStmts(c.(*ast.CaseClause).Body, held)
				}
			case *ast.TypeSwitchStmt:
				attribute(held, s.Init)
				attribute(held, s.Assign)
				for _, c := range s.Body.List {
					walkStmts(c.(*ast.CaseClause).Body, held)
				}
			case *ast.SelectStmt:
				if len(held) > 0 && !selHasDefault(s) {
					for _, h := range held {
						h.ops = append(h.ops, blockOp{pos: s.Pos(), kind: opSelect})
					}
				}
				for _, c := range s.Body.List {
					cc := c.(*ast.CommClause)
					walkStmts(cc.Body, held)
				}
			default:
				attribute(held, stmt)
			}
		}
	}
	walkStmts(n.Body.List, nil)
}

// fixpoint propagates the blocking facts transitively through non-go
// edges: canBlock (any hard op at all), canBlockHard (hard ops other
// than Cond.Wait — those never release any caller-held lock),
// condWaits/condUnknown (which cond vars a call chain can park on), and
// the transitive lock-acquisition sets.
func (lf *lockFacts) fixpoint() {
	for _, n := range lf.graph.Nodes {
		acq := map[*types.Var]bool{}
		cw := map[*types.Var]bool{}
		for _, op := range lf.ops[n] {
			switch {
			case op.kind == opCondWait:
				lf.canBlock[n] = true
				if op.lock != nil {
					cw[op.lock] = true
				} else {
					lf.condUnknown[n] = true
				}
			case op.hard():
				lf.canBlock[n] = true
				lf.canBlockHard[n] = true
			case op.lock != nil:
				acq[op.lock] = true
			}
		}
		lf.acquires[n] = acq
		if len(cw) > 0 {
			lf.condWaits[n] = cw
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range lf.graph.Nodes {
			for _, e := range n.Out {
				if e.Go {
					continue
				}
				if lf.canBlock[e.To] && !lf.canBlock[n] {
					lf.canBlock[n] = true
					changed = true
				}
				if lf.canBlockHard[e.To] && !lf.canBlockHard[n] {
					lf.canBlockHard[n] = true
					changed = true
				}
				if lf.condUnknown[e.To] && !lf.condUnknown[n] {
					lf.condUnknown[n] = true
					changed = true
				}
				for v := range lf.condWaits[e.To] {
					if !lf.condWaits[n][v] {
						if lf.condWaits[n] == nil {
							lf.condWaits[n] = map[*types.Var]bool{}
						}
						lf.condWaits[n][v] = true
						changed = true
					}
				}
				for v := range lf.acquires[e.To] {
					if !lf.acquires[n][v] {
						lf.acquires[n][v] = true
						changed = true
					}
				}
			}
		}
	}
}

// computeContended marks a mutex contended when any critical section on
// it can stall the holder: a hard-blocking op inside (Cond.Wait
// excepted — it releases the lock it waits on), a nested lock, or a
// call into a function that can block or acquires any lock.
func (lf *lockFacts) computeContended() {
	for _, s := range lf.sections {
		if s.lock == nil {
			continue
		}
		slow := len(s.nested) > 0
		for _, op := range s.ops {
			if op.kind != opCondWait {
				slow = true
			}
		}
		for _, e := range s.calls {
			if lf.canBlock[e.To] || len(lf.acquires[e.To]) > 0 {
				slow = true
			}
		}
		if slow {
			lf.contended[s.lock] = true
		}
	}
}

// condReleases reports whether parking on cond releases the held mutex:
// true exactly when sync.NewCond associated cond with that mutex. An
// unresolvable cond receiver or an association to a different (or
// unknown) mutex keeps the section on the hook.
func (lf *lockFacts) condReleases(cond, held *types.Var) bool {
	if cond == nil {
		return false
	}
	return lf.condOwner[cond] == held
}

// callBlocksHolding reports whether calling callee while holding held
// can park without releasing held: a hard blocking op anywhere in the
// chain, a Cond.Wait on an unresolvable cond, or a Cond.Wait whose cond
// belongs to some other mutex.
func (lf *lockFacts) callBlocksHolding(callee *CGNode, held *types.Var) bool {
	if lf.canBlockHard[callee] || lf.condUnknown[callee] {
		return true
	}
	for cv := range lf.condWaits[callee] {
		if !lf.condReleases(cv, held) {
			return true
		}
	}
	return false
}

// blockingWitness returns a short chain demonstrating why n can block:
// the path through non-go edges to the first node with a hard op, ending
// with the op kind. Empty when n cannot block.
func (lf *lockFacts) blockingWitness(n *CGNode) string {
	var path []*CGNode
	seen := map[*CGNode]bool{}
	var dfs func(m *CGNode) string
	dfs = func(m *CGNode) string {
		if seen[m] {
			return ""
		}
		seen[m] = true
		path = append(path, m)
		defer func() { path = path[:len(path)-1] }()
		for _, op := range lf.ops[m] {
			if op.hard() {
				return chainString(path) + ": " + op.kind.String()
			}
		}
		for _, e := range m.Out {
			if e.Go || !lf.canBlock[e.To] {
				continue
			}
			if w := dfs(e.To); w != "" {
				return w
			}
		}
		return ""
	}
	return dfs(n)
}
