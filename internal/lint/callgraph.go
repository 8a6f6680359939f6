package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Conservative whole-module call graph. The inter-procedural analyzers
// (nonblocking, lock-order) need to know what a function can transitively
// reach; this file builds that relation with three edge sources, each
// over-approximating in the safe direction (more edges, never fewer):
//
//  1. Static calls — the callee resolves to a declared function or
//     method via go/types (including explicit generic instantiation and
//     directly-invoked function literals).
//  2. Interface dispatch — a call through an interface method fans out
//     to every concrete method in the module whose receiver type
//     implements the interface.
//  3. Function values — a call through a variable, field, parameter, or
//     stored closure fans out to every *address-taken* function or
//     literal in the module whose signature shape (parameter count,
//     result count, variadicity) matches the call site. A function is
//     address-taken when it is referenced anywhere outside call
//     position; functions that are only ever called directly never
//     enter the dynamic-candidate pool, which keeps the fan-out small.
//
// Edges launched by `go` statements are marked, because spawning a
// goroutine transfers the callee's blocking behavior to another thread
// of control: the nonblocking and lock-held analyses skip Go edges.
// Soundness limits (calls into the standard library are opaque except
// for the recognized blocking primitives; reflection and unsafe are
// invisible) are catalogued in DESIGN.md §10.

// CGNode is one function in the call graph: a declared function/method
// (Fn != nil) or a function literal (Lit != nil).
type CGNode struct {
	Fn   *types.Func
	Lit  *ast.FuncLit
	Pkg  *Package
	Body *ast.BlockStmt
	Name string // display name: "(*Node).dispatch", "commWorker$1"
	Decl *ast.FuncDecl

	Out []CGEdge
}

// Pos is the node's declaration position.
func (n *CGNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	return token.NoPos
}

// CGEdge is one call site resolved to one target.
type CGEdge struct {
	To      *CGNode
	Site    ast.Node // the CallExpr (or the referencing expr for value flows)
	Go      bool     // the call is the operand of a go statement
	Defer   bool     // the call is deferred
	Dynamic bool     // resolved by signature shape or interface fan-out
	FuncVal bool     // resolved through a stored function value (subset of Dynamic)
}

// CallGraph indexes the module's functions and their call edges.
type CallGraph struct {
	Nodes []*CGNode
	ByFn  map[*types.Func]*CGNode
	byLit map[*ast.FuncLit]*CGNode
}

// NodeFor returns the graph node of a declared function, or nil.
func (g *CallGraph) NodeFor(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.ByFn[origin(fn)]
}

func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// sigShape is the coarse dynamic-dispatch index key (parameter/result
// counts plus variadicity). Candidates sharing a shape are then filtered
// by element-wise type identity in sigCompatible, so a stored
// func(int, []byte) handler matches a call through a field of that type
// but an unrelated two-argument function does not.
type sigShape struct {
	params, results int
	variadic        bool
}

func shapeOf(sig *types.Signature) sigShape {
	s := sigShape{variadic: sig.Variadic()}
	if sig.Params() != nil {
		s.params = sig.Params().Len()
	}
	if sig.Results() != nil {
		s.results = sig.Results().Len()
	}
	return s
}

// sigCompatible reports whether a candidate (its receiver, if any,
// already bound) could be the function value called with the site's
// signature: identical parameter and result types, element-wise.
// Underlying types are compared so named function types (`type Handler
// func(int, []byte)`) match their literal spellings.
func sigCompatible(site, cand *types.Signature) bool {
	if site.Variadic() != cand.Variadic() {
		return false
	}
	sp, cp := site.Params(), cand.Params()
	sr, cr := site.Results(), cand.Results()
	if sp.Len() != cp.Len() || sr.Len() != cr.Len() {
		return false
	}
	for i := 0; i < sp.Len(); i++ {
		if !types.Identical(sp.At(i).Type().Underlying(), cp.At(i).Type().Underlying()) {
			return false
		}
	}
	for i := 0; i < sr.Len(); i++ {
		if !types.Identical(sr.At(i).Type().Underlying(), cr.At(i).Type().Underlying()) {
			return false
		}
	}
	return true
}

// dynCand is one address-taken function in the dynamic-dispatch pool.
type dynCand struct {
	n   *CGNode
	sig *types.Signature
}

// BuildCallGraph constructs the module call graph over pkgs. Packages
// sharing one load (one FileSet, cross-linked type info) resolve
// cross-package static calls; fixture loads of a single package get a
// single-package graph, which is exactly what the fixture tests need.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		ByFn:  map[*types.Func]*CGNode{},
		byLit: map[*ast.FuncLit]*CGNode{},
	}

	// Pass 1: nodes for declared functions, and method index for
	// interface fan-out.
	var methods []cgMethod
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &CGNode{Fn: fn, Pkg: p, Body: fd.Body, Decl: fd, Name: displayName(fn)}
				g.Nodes = append(g.Nodes, n)
				g.ByFn[origin(fn)] = n
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil {
					methods = append(methods, cgMethod{recv: sig.Recv().Type(), fn: fn})
				}
			}
		}
	}

	// Pass 1b: nodes for function literals, named after their enclosing
	// declaration. The traversal order assigns stable $1, $2 suffixes.
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				outer := fd.Name.Name
				i := 0
				ast.Inspect(fd.Body, func(node ast.Node) bool {
					lit, ok := node.(*ast.FuncLit)
					if !ok {
						return true
					}
					i++
					n := &CGNode{Lit: lit, Pkg: p, Body: lit.Body,
						Name: fmt.Sprintf("%s$%d", outer, i)}
					g.Nodes = append(g.Nodes, n)
					g.byLit[lit] = n
					return true
				})
			}
		}
	}

	// Pass 2: the address-taken pool, grouped by signature shape.
	taken := map[sigShape][]dynCand{}
	addTaken := func(n *CGNode, sig *types.Signature) {
		taken[shapeOf(sig)] = append(taken[shapeOf(sig)], dynCand{n: n, sig: sig})
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			callPos := map[ast.Expr]bool{} // exprs that ARE the callee of a call
			ast.Inspect(f, func(node ast.Node) bool {
				if call, ok := node.(*ast.CallExpr); ok {
					fun := ast.Unparen(call.Fun)
					callPos[fun] = true
					// Generic instantiation wraps the callee.
					switch ix := fun.(type) {
					case *ast.IndexExpr:
						callPos[ast.Unparen(ix.X)] = true
					case *ast.IndexListExpr:
						callPos[ast.Unparen(ix.X)] = true
					}
				}
				return true
			})
			ast.Inspect(f, func(node ast.Node) bool {
				switch e := node.(type) {
				case *ast.FuncLit:
					if !callPos[e] {
						if n := g.byLit[e]; n != nil {
							if tv, ok := p.Info.Types[e]; ok {
								if sig, ok := tv.Type.(*types.Signature); ok {
									addTaken(n, sig)
								}
							}
						}
					}
				case *ast.Ident:
					if callPos[e] {
						return true
					}
					if fn, ok := p.Info.Uses[e].(*types.Func); ok {
						if n := g.NodeFor(fn); n != nil {
							addTaken(n, fn.Type().(*types.Signature))
						}
					}
				case *ast.SelectorExpr:
					if callPos[e] {
						return true
					}
					if fn, ok := p.Info.Uses[e.Sel].(*types.Func); ok {
						if n := g.NodeFor(fn); n != nil {
							addTaken(n, fn.Type().(*types.Signature))
						}
					}
				}
				return true
			})
		}
	}

	// Pass 3: edges. Each node's body is walked with nested literals cut
	// out (they are their own nodes); a literal's creation adds no edge
	// unless it is directly called, deferred, or go'd — otherwise its
	// calls are reachable only through the dynamic pool, mirroring how
	// the value actually flows.
	implCache := map[*types.Interface][]*types.Func{}
	for _, n := range g.Nodes {
		g.addEdges(n, methods, implCache, taken)
	}
	return g
}

func displayName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		return "(*" + typeBase(p.Elem()) + ")." + fn.Name()
	}
	return typeBase(t) + "." + fn.Name()
}

func typeBase(t types.Type) string {
	s := types.TypeString(t, func(p *types.Package) string { return "" })
	if i := strings.LastIndex(s, "."); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// cgMethod is one concrete method in the interface-dispatch index.
type cgMethod struct {
	recv types.Type // receiver type (possibly pointer)
	fn   *types.Func
}

func (g *CallGraph) addEdges(n *CGNode, methods []cgMethod,
	implCache map[*types.Interface][]*types.Func, taken map[sigShape][]dynCand) {
	p := n.Pkg
	var walk func(node ast.Node, inGo, inDefer bool)
	addEdge := func(to *CGNode, site ast.Node, inGo, inDefer, dyn bool) {
		if to == nil {
			return
		}
		n.Out = append(n.Out, CGEdge{To: to, Site: site, Go: inGo, Defer: inDefer, Dynamic: dyn})
	}
	handleCall := func(call *ast.CallExpr, inGo, inDefer bool) {
		fun := ast.Unparen(call.Fun)
		// Directly-invoked literal.
		if lit, ok := fun.(*ast.FuncLit); ok {
			addEdge(g.byLit[lit], call, inGo, inDefer, false)
			return
		}
		// Conversion, not a call.
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			return
		}
		if fn := calleeFunc(p, call); fn != nil {
			sig := fn.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
				// Interface dispatch: fan out to module implementations.
				for _, impl := range g.implementations(fn, methods, implCache) {
					addEdge(g.NodeFor(impl), call, inGo, inDefer, true)
				}
				return
			}
			addEdge(g.NodeFor(fn), call, inGo, inDefer, false)
			return
		}
		// Builtins resolve to nothing.
		if id, ok := fun.(*ast.Ident); ok {
			if _, ok := p.Info.Uses[id].(*types.Builtin); ok {
				return
			}
		}
		// Call through a function value: match the dynamic pool by shape.
		tv, ok := p.Info.Types[call.Fun]
		if !ok || tv.Type == nil {
			return
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return
		}
		for _, cand := range taken[shapeOf(sig)] {
			if sigCompatible(sig, cand.sig) {
				if cand.n != nil {
					n.Out = append(n.Out, CGEdge{To: cand.n, Site: call,
						Go: inGo, Defer: inDefer, Dynamic: true, FuncVal: true})
				}
			}
		}
	}
	walk = func(node ast.Node, inGo, inDefer bool) {
		ast.Inspect(node, func(inner ast.Node) bool {
			switch v := inner.(type) {
			case *ast.FuncLit:
				return false // its body is its own node
			case *ast.GoStmt:
				handleCall(v.Call, true, inDefer)
				// Arguments are evaluated in the spawner; walk them
				// normally, but the callee body runs concurrently.
				for _, a := range v.Call.Args {
					walk(a, inGo, inDefer)
				}
				if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
					_ = lit // body handled via its own node
				}
				return false
			case *ast.DeferStmt:
				handleCall(v.Call, inGo, true)
				for _, a := range v.Call.Args {
					walk(a, inGo, inDefer)
				}
				return false
			case *ast.CallExpr:
				handleCall(v, inGo, inDefer)
			}
			return true
		})
	}
	walk(n.Body, false, false)
}

// implementations returns the module's concrete methods that an
// interface method call could dispatch to.
func (g *CallGraph) implementations(abstract *types.Func, methods []cgMethod,
	cache map[*types.Interface][]*types.Func) []*types.Func {
	recv := abstract.Type().(*types.Signature).Recv().Type()
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if impls, ok := cache[iface]; ok {
		return filterByName(impls, abstract.Name())
	}
	var impls []*types.Func
	seen := map[*types.Func]bool{}
	for _, m := range methods {
		t := m.recv
		if types.Implements(t, iface) || types.Implements(types.NewPointer(derefType(t)), iface) {
			if !seen[m.fn] {
				seen[m.fn] = true
				impls = append(impls, m.fn)
			}
		}
	}
	cache[iface] = impls
	return filterByName(impls, abstract.Name())
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func filterByName(fns []*types.Func, name string) []*types.Func {
	var out []*types.Func
	for _, fn := range fns {
		if fn.Name() == name {
			out = append(out, fn)
		}
	}
	return out
}

// chain is a call path through the graph, used in diagnostics:
// "dispatch → completeLocal → PutVia".
func chainString(path []*CGNode) string {
	names := make([]string, len(path))
	for i, n := range path {
		names[i] = n.Name
	}
	return strings.Join(names, " → ")
}

// SortedNodes returns the nodes ordered by position, for deterministic
// iteration in analyses that report per-node.
func (g *CallGraph) SortedNodes() []*CGNode {
	out := append([]*CGNode(nil), g.Nodes...)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].Pkg.position(out[i].Pos()), out[j].Pkg.position(out[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return out
}
