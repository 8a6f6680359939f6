// Package lint is hclint's engine: a stdlib-only static analyzer suite
// that enforces the HCMPI runtime's concurrency invariants at compile
// time. It is built exclusively on go/parser, go/ast, go/types,
// go/importer and go/build — no golang.org/x/tools — so it honors the
// repository's no-external-dependencies rule.
//
// The runtime's most delicate invariants live in lock-free code whose
// correctness the type system cannot see: the Chase–Lev deque's
// owner/thief split, the communication-task recycling free-list
// (ALLOCATED→PRESCRIBED→ACTIVE→COMPLETED→AVAILABLE, paper Fig. 11),
// single-assignment DDFs, and the wait-free trace rings. Each analyzer
// here machine-checks one of those invariants on every build, instead of
// hoping a -race run gets lucky. Nine analyzers, in three groups:
//
//   - intra-procedural: lifecycle (comm-task state changes only through
//     Node.traceState, and no commTask use follows a retiring call),
//     ddf-once (two Puts on one DDF along one path), hotpath-alloc
//     (//hclint:hotpath functions stay allocation-free);
//   - over the module call graph: lock-order, nonblocking, tag-space,
//     goroutine-leak;
//   - forward dataflow over per-function CFGs: buffer-reuse,
//     collective-divergence.
//
// See DESIGN.md §10 for the invariant catalogue, the record each
// analyzer is kept on, and how to add one.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Finding is one diagnostic: a position, the analyzer that produced it,
// and a message. The rendered form is "file:line: [check] message".
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Package is one type-checked analysis unit: a package's files (possibly
// augmented with its in-package _test.go files, or an external _test
// package) plus the go/types information analyzers query.
type Package struct {
	Path   string // import path ("hcmpi/internal/deque")
	Dir    string
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
	Errors []error // type errors; analyzers still run best-effort

	allow map[string]map[int]*allowComment // lazily built //hclint:allow index
}

func (p *Package) position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

func (p *Package) findingf(check string, pos token.Pos, format string, args ...any) Finding {
	return Finding{Pos: p.position(pos), Check: check, Msg: fmt.Sprintf(format, args...)}
}

// Analyzer is one named check. Per-package analyzers set Run; the
// inter-procedural analyzers (which need the whole-module call graph)
// set RunModule instead and are invoked once per load with every
// package in view.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(p *Package) []Finding
	RunModule func(pkgs []*Package) []Finding
}

// All returns the default analyzer suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Lifecycle, DDFOnce, HotpathAlloc,
		LockOrder, Nonblocking, TagSpace, GoroutineLeak,
		BufferReuse, CollectiveDivergence,
	}
}

// RunAll applies every analyzer to every package (module analyzers run
// once over the whole slice) and returns the findings sorted by file,
// line, then check name. Findings at positions carrying an
// `//hclint:allow <reason>` comment are suppressed.
func RunAll(pkgs []*Package, checks []*Analyzer) []Finding {
	return RunAllResult(pkgs, checks).Findings
}

// Stat is one analyzer's contribution to a RunAllResult run. The first
// module-wide analyzer to run pays for the shared call-graph and
// blocking-facts construction; later ones hit the cache, so its Elapsed
// includes the graph build.
type Stat struct {
	Name     string
	Findings int
	Elapsed  time.Duration
}

// Result is one full lint run: surviving findings (sorted) and
// per-analyzer stats.
type Result struct {
	Findings []Finding
	Stats    []Stat
}

// RunAllResult runs the suite and returns findings and stats together.
// Suppression hit counts are reset at the start of the run, so
// AuditAllows afterwards sees exactly this run's usage.
func RunAllResult(pkgs []*Package, checks []*Analyzer) Result {
	for _, p := range pkgs {
		for _, ac := range p.allowComments() {
			ac.Hits = 0
		}
	}
	var res Result
	for _, a := range checks {
		start := time.Now()
		var fs []Finding
		if a.Run != nil {
			for _, p := range pkgs {
				fs = append(fs, filterAllowed(p, a.Run(p))...)
			}
		}
		if a.RunModule != nil {
			mfs := a.RunModule(pkgs)
			for _, p := range pkgs {
				mfs = filterAllowed(p, mfs)
			}
			fs = append(fs, mfs...)
		}
		res.Stats = append(res.Stats, Stat{Name: a.Name, Findings: len(fs), Elapsed: time.Since(start)})
		res.Findings = append(res.Findings, fs...)
	}
	sortFindings(res.Findings)
	return res
}

// AuditAllows reports every //hclint:allow comment that suppressed
// nothing in the preceding RunAllResult. A stale allow is a blanket
// waiver waiting for a new bug to hide under, so `make lint` and
// TestLiveTreeClean fail on them.
func AuditAllows(pkgs []*Package) []Finding {
	var out []Finding
	seen := map[string]bool{}
	for _, p := range pkgs {
		for _, ac := range p.allowComments() {
			key := fmt.Sprintf("%s:%d", ac.File, ac.Line)
			if ac.Hits > 0 || seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Finding{
				Pos:   token.Position{Filename: ac.File, Line: ac.Line},
				Check: "allow-audit",
				Msg: fmt.Sprintf("stale //hclint:allow (%q) suppresses no finding — delete it or fix the reason",
					ac.Reason),
			})
		}
	}
	sortFindings(out)
	return out
}

func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// allowMarker suppresses one finding with a stated reason, either
// trailing the flagged line or as a full-line comment directly above:
//
//	select { //hclint:allow head-of-loop park: the writer sleeps here until a frame wakes it
const allowMarker = "//hclint:allow"

// allowComment is one //hclint:allow suppression: where it lives, its
// stated justification, and how many findings it masked in the last
// run (the audit fails on Hits == 0).
type allowComment struct {
	File   string
	Line   int // line of the comment itself
	Reason string
	Hits   int
}

// allowIndex lazily builds the per-file suppression map: the line of
// every //hclint:allow comment and the line after it both resolve to
// the same comment record.
func (p *Package) allowIndex() map[string]map[int]*allowComment {
	if p.allow != nil {
		return p.allow
	}
	p.allow = map[string]map[int]*allowComment{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, allowMarker) {
					continue
				}
				pos := p.position(c.Pos())
				lines := p.allow[pos.Filename]
				if lines == nil {
					lines = map[int]*allowComment{}
					p.allow[pos.Filename] = lines
				}
				ac := &allowComment{
					File:   pos.Filename,
					Line:   pos.Line,
					Reason: strings.TrimSpace(strings.TrimPrefix(text, allowMarker)),
				}
				lines[pos.Line] = ac
				lines[pos.Line+1] = ac
			}
		}
	}
	return p.allow
}

// allowComments returns p's suppression comments, one record per
// comment (the index maps two lines to each).
func (p *Package) allowComments() []*allowComment {
	var out []*allowComment
	seen := map[*allowComment]bool{}
	for _, lines := range p.allowIndex() {
		for _, ac := range lines {
			if !seen[ac] {
				seen[ac] = true
				out = append(out, ac)
			}
		}
	}
	return out
}

// filterAllowed drops the findings suppressed by //hclint:allow
// comments in p's files (recording a hit on the comment); findings
// positioned in other packages pass through.
func filterAllowed(p *Package, fs []Finding) []Finding {
	idx := p.allowIndex()
	if len(idx) == 0 {
		return fs
	}
	out := fs[:0]
	for _, f := range fs {
		if lines, ok := idx[f.Pos.Filename]; ok {
			if ac := lines[f.Pos.Line]; ac != nil {
				ac.Hits++
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// dedupe removes exact-duplicate findings (same position, check, and
// message), preserving order.
func dedupe(fs []Finding) []Finding {
	seen := map[string]bool{}
	out := fs[:0]
	for _, f := range fs {
		k := f.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}

// relBase shortens a filename for use inside messages (the finding's own
// position already carries the full path).
func relBase(filename string) string {
	return filepath.Base(filename)
}

// ---- shared AST/type helpers ----

// calleeFunc resolves a call's callee to its *types.Func, or nil for
// builtins, conversions, and indirect calls through function values.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		return calleeFunc(p, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeFunc(p, &ast.CallExpr{Fun: fun.X})
	}
	return nil
}

// parentsOf indexes each node's syntactic parent within root.
func parentsOf(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// unparenParent returns n's syntactic parent, climbing out of
// parentheses.
func unparenParent(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	p := parents[n]
	for {
		if pe, ok := p.(*ast.ParenExpr); ok {
			p = parents[pe]
			continue
		}
		return p
	}
}

// localVarOf resolves id to the local variable it defines or names.
func localVarOf(p *Package, id *ast.Ident) *types.Var {
	if v, ok := p.Info.Defs[id].(*types.Var); ok && !v.IsField() {
		return v
	}
	if v, ok := p.Info.Uses[id].(*types.Var); ok && !v.IsField() {
		return v
	}
	return nil
}

// funcLits collects the top-level function literals of a body (nested
// ones belong to their enclosing literal's scan).
func funcLits(body ast.Node) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if f, ok := n.(*ast.FuncLit); ok {
			out = append(out, f)
			return false
		}
		return true
	})
	return out
}

// isBuiltin reports whether a call invokes the named builtin.
func isBuiltin(p *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.Info.Uses[id].(*types.Builtin)
	return ok
}

// fieldVar resolves expr to the struct-field (or package-level) variable
// it denotes, or nil.
func fieldVar(p *Package, expr ast.Expr) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[e]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				return v
			}
			return nil
		}
		// Qualified identifier (pkg.Var).
		if v, ok := p.Info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	case *ast.Ident:
		if v, ok := p.Info.Uses[e].(*types.Var); ok && !v.IsField() {
			if v.Parent() != nil && v.Parent().Parent() == types.Universe {
				return v // package-level var
			}
		}
	}
	return nil
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// terminates reports whether a statement unconditionally leaves the
// enclosing block: return, branch (break/continue/goto), or a call to
// panic.
func terminates(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
