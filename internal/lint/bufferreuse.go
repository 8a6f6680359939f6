package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BufferReuse enforces the nonblocking protocol's second obligation:
// a buffer handed to Isend/Irecv/Win.Put belongs to the library until
// the matching completion. Touching it earlier is the classic
// reuse-after-post race (Sala et al. §3.2; Schuchart et al. §2): the
// transport may still be reading (send) or writing (recv) the memory,
// so a store, an in-place append, a copy-into, recycling the buffer to
// a pool, or re-posting it is a silent data race that -race only
// catches when the interleaving cooperates.
//
// The analysis is a forward may-analysis over the CFG: a post on a
// local buffer generates an in-flight fact (paired with the request
// variable when the post's result is assigned); completing the request
// — or rebinding either variable — kills it. While a fact is live,
// writes through the buffer (`buf[i] = x`, `copy(buf, ..)`,
// `append(buf, ..)`), handing it to a pool-style recycler, and posting
// it again are reported. Reads are deliberately not flagged: reading a
// posted send buffer is legal, and flagging reads of recv buffers
// would drown the one real race class in noise.
//
// The analyzer also checks the receiving side's version of the rule,
// the borrowed payload of a Listen callback (listenScanBody below).
var BufferReuse = &Analyzer{
	Name:      "buffer-reuse",
	Doc:       "a posted buffer must not be written, recycled, or re-posted before its completion; a listener payload must not outlive its callback",
	RunModule: runBufferReuse,
}

// bufPostFact is one in-flight posted buffer: the buffer variable, the
// request variable completing it (nil when the post was
// fire-and-forget), and the post site for diagnostics.
type bufPostFact struct {
	buf  *types.Var
	req  *types.Var
	post string
	pos  token.Pos
}

func runBufferReuse(pkgs []*Package) []Finding {
	g, _ := factsFor(pkgs)
	var out []Finding
	for _, n := range g.SortedNodes() {
		if n.Body != nil {
			out = append(out, reuseScanBody(n)...)
			out = append(out, listenScanBody(g, n)...)
		}
	}
	return dedupe(out)
}

// postBufferArg returns the buffer argument of a post call: the first
// argument for the buffered posts, none for IrecvAdopt/IrecvBytes/Get.
func postBufferArg(fn *types.Func, call *ast.CallExpr) (ast.Expr, bool) {
	switch fn.Name() {
	case "Isend", "Irecv", "Put", "Accumulate":
		if len(call.Args) > 0 {
			return call.Args[0], true
		}
	}
	return nil, false
}

func reuseScanBody(n *CGNode) []Finding {
	p := n.Pkg
	parents := parentsOf(n.Body)

	// Buffers captured by closures may be completed/written elsewhere;
	// leave them alone.
	captured := map[*types.Var]bool{}
	for _, f := range funcLits(n.Body) {
		ast.Inspect(f.Body, func(node ast.Node) bool {
			if id, ok := node.(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok {
					captured[v] = true
				}
			}
			return true
		})
	}

	// postAt resolves a node's post call (if any) to (buf, req) vars.
	postIn := func(node ast.Node) []bufPostFact {
		var posts []bufPostFact
		ast.Inspect(node, func(inner ast.Node) bool {
			if _, ok := inner.(*ast.FuncLit); ok {
				return false
			}
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := postCallOf(p, call)
			if !ok {
				return true
			}
			// Chained completion `post(buf).Wait()` closes the in-flight
			// window before the next statement: no fact.
			if sel, ok := unparenParent(parents, call).(*ast.SelectorExpr); ok {
				if completeMethodNames[sel.Sel.Name] {
					return true
				}
			}
			bufExpr, ok := postBufferArg(fn, call)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(bufExpr).(*ast.Ident)
			if !ok {
				return true
			}
			buf := localVarOf(p, id)
			if buf == nil || captured[buf] {
				return true
			}
			f := bufPostFact{buf: buf, post: fn.Name(), pos: call.Pos()}
			if as, ok := unparenParent(parents, call).(*ast.AssignStmt); ok {
				for i, rhs := range as.Rhs {
					if ast.Unparen(rhs) == call && i < len(as.Lhs) {
						if rid, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
							if r := localVarOf(p, rid); r != nil && !captured[r] {
								f.req = r
							}
						}
					}
				}
			}
			posts = append(posts, f)
			return true
		})
		return posts
	}

	// Per-node effect extraction, shared by the transfer function and
	// the reporting replay.
	type nodeEffect struct {
		writes   []writeHazard
		killVars map[*types.Var]bool // assigned or completed vars
		gens     []bufPostFact
	}
	effectOf := func(node ast.Node) nodeEffect {
		e := nodeEffect{killVars: map[*types.Var]bool{}}
		ast.Inspect(node, func(inner ast.Node) bool {
			if _, ok := inner.(*ast.FuncLit); ok {
				return false
			}
			switch v := inner.(type) {
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					if root := writtenRoot(p, lhs); root != nil {
						e.writes = append(e.writes, writeHazard{root, "written", lhs.Pos()})
					}
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if w := localVarOf(p, id); w != nil {
							e.killVars[w] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if root := writtenRoot(p, v.X); root != nil {
					e.writes = append(e.writes, writeHazard{root, "written", v.X.Pos()})
				}
			case *ast.ValueSpec:
				for _, name := range v.Names {
					if w := localVarOf(p, name); w != nil {
						e.killVars[w] = true
					}
				}
			case *ast.UnaryExpr:
				if v.Op == token.AND {
					// &buf or &buf[i]: address escapes — stop tracking
					// rather than guess (treated as a kill).
					if root := rootIdentVar(p, v.X); root != nil {
						e.killVars[root] = true
					}
				}
			case *ast.CallExpr:
				if isBuiltin(p, v, "copy") && len(v.Args) > 0 {
					if root := rootIdentVar(p, v.Args[0]); root != nil {
						e.writes = append(e.writes, writeHazard{root, "written by copy", v.Pos()})
					}
				}
				if isBuiltin(p, v, "append") && len(v.Args) > 0 {
					if root := rootIdentVar(p, v.Args[0]); root != nil {
						e.writes = append(e.writes, writeHazard{root, "appended to in place", v.Pos()})
					}
				}
				if fn := calleeFunc(p, v); fn != nil && poolRecycler(fn) {
					for _, a := range v.Args {
						if root := rootIdentVar(p, a); root != nil {
							e.writes = append(e.writes, writeHazard{root, "recycled to a pool", v.Pos()})
						}
					}
				}
			case *ast.Ident:
				// A use of a request variable in any non-defining
				// position conservatively completes it (Wait/Test/
				// WaitAll(..)/escape all end the in-flight window).
				if w, ok := p.Info.Uses[v].(*types.Var); ok {
					if isRequestType(w.Type()) {
						e.killVars[w] = true
					}
				}
			}
			return true
		})
		e.gens = postIn(node)
		return e
	}

	cfg := BuildCFG(n.Body)
	var out []Finding

	transferNode := func(node ast.Node, facts factSet) factSet {
		eff := effectOf(node)
		for k := range facts.m {
			f := k.(bufPostFact)
			if eff.killVars[f.buf] || (f.req != nil && eff.killVars[f.req]) {
				facts = facts.Without(k)
			}
		}
		for _, g := range eff.gens {
			facts = facts.With(g)
		}
		return facts
	}
	in := solveDF(cfg, transferNode)

	// Reporting replay: at each node, check hazards against the facts
	// flowing in, then apply its transfer.
	for _, b := range cfg.Blocks {
		facts := in[b]
		for _, node := range b.Nodes {
			eff := effectOf(node)
			for _, w := range eff.writes {
				for k := range facts.m {
					f := k.(bufPostFact)
					if f.buf == w.root {
						pos := p.position(f.pos)
						out = append(out, p.findingf("buffer-reuse", w.pos,
							"buffer %s is %s while posted by %s at %s:%d — the library owns it until the request completes",
							f.buf.Name(), w.kind, f.post, relBase(pos.Filename), pos.Line))
					}
				}
			}
			for _, g := range eff.gens {
				for k := range facts.m {
					f := k.(bufPostFact)
					if f.buf == g.buf {
						pos := p.position(f.pos)
						out = append(out, p.findingf("buffer-reuse", g.pos,
							"buffer %s re-posted by %s while still posted by %s at %s:%d — complete the first request before reusing the buffer",
							f.buf.Name(), g.post, f.post, relBase(pos.Filename), pos.Line))
					}
				}
			}
			facts = transferNode(node, facts)
		}
	}
	return out
}

// writeHazard is one store through a tracked buffer.
type writeHazard struct {
	root *types.Var
	kind string
	pos  token.Pos
}

// writtenRoot returns the buffer variable written through an index,
// slice, or star expression (`buf[i]`, `buf[i:j]`, `*buf`); a plain
// identifier LHS is a rebind, not a write.
func writtenRoot(p *Package, lhs ast.Expr) *types.Var {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.IndexExpr:
		return rootIdentVar(p, v.X)
	case *ast.SliceExpr:
		return rootIdentVar(p, v.X)
	case *ast.StarExpr:
		return rootIdentVar(p, v.X)
	}
	return nil
}

// rootIdentVar resolves the base identifier of an index/slice/selector
// chain to its local variable.
func rootIdentVar(p *Package, e ast.Expr) *types.Var {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return localVarOf(p, v)
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// poolRecycler reports whether fn is a pool-style recycler: Put/
// Release/Free/Recycle on a pool package or pool-named receiver.
func poolRecycler(fn *types.Func) bool {
	switch fn.Name() {
	case "Put", "Release", "Free", "Recycle":
	default:
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			if containsFold(named.Obj().Name(), "pool") {
				return true
			}
		}
	}
	return fn.Pkg() != nil && containsFold(fn.Pkg().Path(), "pool")
}

func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		ok := true
		for j := 0; j < len(sub); j++ {
			c, d := s[i+j], sub[j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != d {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Listener payloads are the same obligation seen from the other side: the
// []byte a Listen callback receives belongs to the transport, which lends
// it for the duration of the call and stages the next message in it
// afterwards (hcmpi.Node.Listen). A callback may read it, slice it and
// pass it down, but whatever it keeps it must copy. listenScanBody finds
// the callbacks registered in n's body — function literals, and methods
// or functions passed by name — and reports the stores that let the
// payload, or a sub-slice of it, outlive the call: an assignment to
// anything but a local of the callback, a channel send, an append or
// composite literal that takes it as an element, a goroutine started on
// it. Aliases (`p := payload[8:]`) are followed; values returned by
// callees are not.
func listenScanBody(g *CallGraph, n *CGNode) []Finding {
	var out []Finding
	ast.Inspect(n.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		if fn := calleeFunc(n.Pkg, call); fn == nil || fn.Name() != "Listen" {
			return true
		}
		if lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit); ok {
			out = append(out, payloadRetention(n.Pkg, lit.Type, lit.Body)...)
			return true
		}
		// A method or function passed by name: scan its declaration.
		cb := g.NodeFor(calleeFunc(n.Pkg, &ast.CallExpr{Fun: call.Args[1]}))
		if cb != nil && cb.Decl != nil && cb.Body != nil {
			out = append(out, payloadRetention(cb.Pkg, cb.Decl.Type, cb.Body)...)
		}
		return true
	})
	return out
}

// payloadRetention scans one listener callback (its signature and body)
// for stores of the borrowed payload parameter.
func payloadRetention(p *Package, sig *ast.FuncType, body *ast.BlockStmt) []Finding {
	params := sig.Params.List
	if len(params) == 0 {
		return nil
	}
	names := params[len(params)-1].Names
	if len(names) == 0 || names[len(names)-1].Name == "_" {
		return nil // the payload is never named, so never kept
	}
	payload := localVarOf(p, names[len(names)-1])
	if payload == nil || !types.Identical(payload.Type().Underlying(), types.NewSlice(types.Typ[types.Byte])) {
		return nil
	}

	tainted := map[*types.Var]bool{payload: true}
	local := func(v *types.Var) bool { // declared by the callback itself
		return v == payload || (v.Pos() >= body.Pos() && v.Pos() < body.End())
	}
	// derived reports whether e evaluates to the payload or a slice of it.
	var derived func(e ast.Expr) bool
	derived = func(e ast.Expr) bool {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			w := localVarOf(p, v)
			return w != nil && tainted[w]
		case *ast.SliceExpr:
			return derived(v.X)
		}
		return false
	}
	// pairs walks the (lhs, rhs) pairs of assignments and var specs.
	pairs := func(visit func(lhs, rhs ast.Expr)) {
		ast.Inspect(body, func(node ast.Node) bool {
			switch v := node.(type) {
			case *ast.AssignStmt:
				if len(v.Lhs) == len(v.Rhs) {
					for i := range v.Lhs {
						visit(v.Lhs[i], v.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(v.Names) == len(v.Values) {
					for i := range v.Names {
						visit(v.Names[i], v.Values[i])
					}
				}
			}
			return true
		})
	}
	// Aliases first, to a fixpoint: the scan below is flow-insensitive.
	for grew := true; grew; {
		grew = false
		pairs(func(lhs, rhs ast.Expr) {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && derived(rhs) {
				if w := localVarOf(p, id); w != nil && local(w) && !tainted[w] {
					tainted[w], grew = true, true
				}
			}
		})
	}

	var out []Finding
	report := func(pos token.Pos, how string) {
		out = append(out, p.findingf("buffer-reuse", pos,
			"listener payload %s is %s — it is only borrowed for the callback (the sweep recycles the buffer on return): copy what must outlive the call",
			payload.Name(), how))
	}
	pairs(func(lhs, rhs ast.Expr) {
		if !derived(rhs) {
			return
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if w := localVarOf(p, id); w == nil || local(w) {
				return // an alias (or the blank identifier)
			}
		}
		report(lhs.Pos(), "stored in "+types.ExprString(lhs)+", which outlives the callback")
	})
	ast.Inspect(body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.SendStmt:
			if derived(v.Value) {
				report(v.Pos(), "sent on a channel")
			}
		case *ast.CallExpr:
			if isBuiltin(p, v, "append") && !v.Ellipsis.IsValid() {
				for _, a := range v.Args[1:] {
					if derived(a) {
						report(a.Pos(), "appended as an element")
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if derived(el) {
					report(el.Pos(), "stored in a composite literal")
				}
			}
		case *ast.GoStmt:
			uses := false
			ast.Inspect(v.Call, func(inner ast.Node) bool {
				if e, ok := inner.(ast.Expr); ok && derived(e) {
					uses = true
				}
				return !uses
			})
			if uses {
				report(v.Pos(), "handed to a goroutine")
			}
		}
		return true
	})
	return out
}

// postMethodNames are the nonblocking posts: methods returning a
// *Request, whose buffer the transport owns until it completes.
var postMethodNames = map[string]bool{
	"Isend": true, "Irecv": true, "IrecvAdopt": true, "IrecvBytes": true,
}

// completeMethodNames complete (or take over) a posted request. DDF is
// here because handing a request's DDF to an await transfers completion
// to the enclosing finish scope (the paper's Fig. 3 idiom).
var completeMethodNames = map[string]bool{
	"Wait": true, "WaitStatus": true,
	"Test": true, "TestStatus": true, "Free": true, "Cancel": true,
	"DDF": true,
}

// isRequestType reports whether t is (a pointer to) a named type
// called Request — matched by name so fixture packages and the three
// in-module request families (mpi, hcmpi, sim) all qualify.
func isRequestType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "Request"
}

// rmaPostNames are the one-sided posts, valid only on a Win receiver
// (Put/Get are far too common as names to match on any type).
var rmaPostNames = map[string]bool{"Put": true, "Accumulate": true, "Get": true}

// postCallOf resolves call to a nonblocking post: a method named like
// a post whose single result is a request.
func postCallOf(p *Package, call *ast.CallExpr) (*types.Func, bool) {
	fn := calleeFunc(p, call)
	if fn == nil {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	if !postMethodNames[fn.Name()] {
		if !rmaPostNames[fn.Name()] {
			return nil, false
		}
		recv := namedOf(sig.Recv().Type())
		if recv == nil || recv.Obj().Name() != "Win" {
			return nil, false
		}
	}
	if sig.Results().Len() != 1 || !isRequestType(sig.Results().At(0).Type()) {
		return nil, false
	}
	return fn, true
}
