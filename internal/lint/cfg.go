package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Control-flow graphs over go/ast function bodies. The dataflow-based
// analyzers (buffer-reuse, collective-divergence) need path
// sensitivity the block-stack tricks of the older analyzers can't give:
// "between the post and its completion", "may this variable hold a
// rank-derived value here". BuildCFG decomposes one body into basic blocks of
// *simple* statements — control statements (if/for/switch/select) are
// dissolved into edges, with their condition/tag expressions appended
// as plain nodes so transfer functions see them in evaluation order.
//
// Shape decisions, in the order they bite:
//
//   - One synthetic Exit block. Returns, panics, and calls to the
//     recognized terminators (os.Exit, runtime.Goexit, log.Fatal*)
//     edge there; so does falling off the end of the body.
//   - `for` builds head → body → post → head with the back edge
//     explicit; `range` synthesizes an AssignStmt (key, value := X) in
//     the head so taint-style analyses see the loop variable bind.
//   - `select` gets one block per comm clause (the comm statement is
//     the block's first node); no default means no bypass edge, which
//     is exactly the blocking semantics.
//   - `defer` stays in its block as a registration node and is also
//     recorded in Defers. Analyzers treat a deferred completing call
//     as completing at the registration point: once registration
//     executes, the call runs on *every* continuation path (the
//     defer-runs-on-all-exits guarantee), so for "must eventually
//     happen" facts the registration is the sound program point.
//   - Statements following a terminator open a fresh block with no
//     predecessors: unreachable code stays in the graph (so positions
//     resolve) but never contributes facts to reachable joins.
//
// The graph is deliberately syntactic — no call returns are modeled,
// no exceptional edges beyond panic-as-terminator — matching what the
// module's analyzers need and no more.

// CFGBlock is one basic block: a run of simple statements and
// condition expressions with no internal control flow.
type CFGBlock struct {
	Index int
	Nodes []ast.Node // simple stmts and guard exprs, in execution order
	Succs []*CFGBlock
	Preds []*CFGBlock
}

// CFG is the control-flow graph of a single function body.
type CFG struct {
	Blocks []*CFGBlock
	Entry  *CFGBlock
	Exit   *CFGBlock // synthetic; no Nodes
	Defers []*ast.DeferStmt

	blockOf map[ast.Node]*CFGBlock
}

// BlockOf returns the block a node was appended to, or nil for nodes
// inside nested subtrees (only top-level appended nodes are indexed).
func (c *CFG) BlockOf(n ast.Node) *CFGBlock { return c.blockOf[n] }

// Reachable reports whether b is reachable from Entry.
func (c *CFG) Reachable(b *CFGBlock) bool {
	seen := make([]bool, len(c.Blocks))
	var dfs func(x *CFGBlock) bool
	dfs = func(x *CFGBlock) bool {
		if x == b {
			return true
		}
		if seen[x.Index] {
			return false
		}
		seen[x.Index] = true
		for _, s := range x.Succs {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return dfs(c.Entry)
}

// rangeBind is the synthetic head node of a range statement: the loop
// variables bound from the range operand. It satisfies ast.Node via the
// embedded AssignStmt built from the range's own (real, type-checked)
// sub-expressions.
type rangeBind = ast.AssignStmt

type cfgLoop struct {
	label      string
	brk, cont  *CFGBlock // cont == nil for switch/select frames
	isBreakble bool
}

type cfgGoto struct {
	from  *CFGBlock
	label string
	pos   token.Pos
}

type cfgBuilder struct {
	cfg        *CFG
	cur        *CFGBlock // nil when flow has terminated
	frames     []cfgLoop
	labels     map[string]*CFGBlock
	gotos      []cfgGoto
	fallTarget *CFGBlock // next case body, set while building a switch case
	pending    string    // label awaiting the next breakable statement
}

// BuildCFG constructs the control-flow graph of body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{blockOf: map[ast.Node]*CFGBlock{}},
		labels: map[string]*CFGBlock{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	b.edge(b.cur, b.cfg.Exit) // implicit return
	for _, g := range b.gotos {
		if t := b.labels[g.label]; t != nil {
			b.edge(g.from, t)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *CFGBlock) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// ensure gives unreachable code (statements after a terminator) a home
// block with no predecessors.
func (b *cfgBuilder) ensure() *CFGBlock {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.ensure()
	blk.Nodes = append(blk.Nodes, n)
	b.cfg.blockOf[n] = blk
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takePending consumes the label attached to the statement being built.
func (b *cfgBuilder) takePending() string {
	l := b.pending
	b.pending = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case *ast.BlockStmt:
		b.stmts(v.List)
	case *ast.EmptyStmt:
	case *ast.LabeledStmt:
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labels[v.Label.Name] = target
		b.pending = v.Label.Name
		b.stmt(v.Stmt)
		b.pending = ""
	case *ast.ReturnStmt:
		b.add(v)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branch(v)
	case *ast.DeferStmt:
		b.add(v)
		b.cfg.Defers = append(b.cfg.Defers, v)
	case *ast.ExprStmt:
		b.add(v)
		if call, ok := ast.Unparen(v.X).(*ast.CallExpr); ok && terminalCall(call) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}
	case *ast.IfStmt:
		b.ifStmt(v)
	case *ast.ForStmt:
		b.forStmt(v)
	case *ast.RangeStmt:
		b.rangeStmt(v)
	case *ast.SwitchStmt:
		b.switchStmt(v)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(v)
	case *ast.SelectStmt:
		b.selectStmt(v)
	default:
		// Assign, Go, Send, IncDec, Decl, ... — simple statements.
		b.add(s)
	}
}

func (b *cfgBuilder) branch(v *ast.BranchStmt) {
	label := ""
	if v.Label != nil {
		label = v.Label.Name
	}
	switch v.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.isBreakble && (label == "" || f.label == label) {
				b.edge(b.cur, f.brk)
				break
			}
		}
		b.cur = nil
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.cont != nil && (label == "" || f.label == label) {
				b.edge(b.cur, f.cont)
				break
			}
		}
		b.cur = nil
	case token.GOTO:
		b.gotos = append(b.gotos, cfgGoto{from: b.cur, label: label, pos: v.Pos()})
		b.cur = nil
	case token.FALLTHROUGH:
		b.edge(b.cur, b.fallTarget)
		b.cur = nil
	}
}

func (b *cfgBuilder) ifStmt(v *ast.IfStmt) {
	if v.Init != nil {
		b.stmt(v.Init)
	}
	b.add(v.Cond)
	cond := b.cur
	after := b.newBlock()

	thenB := b.newBlock()
	b.edge(cond, thenB)
	b.cur = thenB
	b.stmts(v.Body.List)
	b.edge(b.cur, after)

	if v.Else != nil {
		elseB := b.newBlock()
		b.edge(cond, elseB)
		b.cur = elseB
		b.stmt(v.Else)
		b.edge(b.cur, after)
	} else {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(v *ast.ForStmt) {
	label := b.takePending()
	if v.Init != nil {
		b.stmt(v.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	if v.Cond != nil {
		b.add(v.Cond)
	}
	head = b.cur // add() can't split, but keep the pattern uniform
	after := b.newBlock()
	if v.Cond != nil {
		b.edge(head, after)
	}
	cont := head
	var post *CFGBlock
	if v.Post != nil {
		post = b.newBlock()
		cont = post
	}
	body := b.newBlock()
	b.edge(head, body)
	b.frames = append(b.frames, cfgLoop{label: label, brk: after, cont: cont, isBreakble: true})
	b.cur = body
	b.stmts(v.Body.List)
	b.edge(b.cur, cont)
	b.frames = b.frames[:len(b.frames)-1]
	if post != nil {
		b.cur = post
		b.stmt(v.Post)
		b.edge(b.cur, head)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(v *ast.RangeStmt) {
	label := b.takePending()
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	b.add(v.X)
	if v.Key != nil {
		// Synthetic bind of the loop variables from the operand; the
		// sub-expressions are the real, type-checked AST nodes.
		bind := &rangeBind{TokPos: v.For, Tok: v.Tok, Rhs: []ast.Expr{v.X}}
		bind.Lhs = append(bind.Lhs, v.Key)
		if v.Value != nil {
			bind.Lhs = append(bind.Lhs, v.Value)
		}
		b.add(bind)
	}
	after := b.newBlock()
	b.edge(head, after)
	body := b.newBlock()
	b.edge(head, body)
	b.frames = append(b.frames, cfgLoop{label: label, brk: after, cont: head, isBreakble: true})
	b.cur = body
	b.stmts(v.Body.List)
	b.edge(b.cur, head)
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) switchStmt(v *ast.SwitchStmt) {
	label := b.takePending()
	if v.Init != nil {
		b.stmt(v.Init)
	}
	if v.Tag != nil {
		b.add(v.Tag)
	}
	b.caseBodies(label, v.Body, func(cc *ast.CaseClause, blk *CFGBlock) {
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
			b.cfg.blockOf[e] = blk
		}
	})
}

func (b *cfgBuilder) typeSwitchStmt(v *ast.TypeSwitchStmt) {
	label := b.takePending()
	if v.Init != nil {
		b.stmt(v.Init)
	}
	b.add(v.Assign)
	// Case lists are type expressions, not evaluated values: skip them.
	b.caseBodies(label, v.Body, nil)
}

// caseBodies wires the shared switch shape: cond → every case body,
// cond → after when there is no default, fallthrough to the next body.
func (b *cfgBuilder) caseBodies(label string, body *ast.BlockStmt,
	guards func(cc *ast.CaseClause, blk *CFGBlock)) {
	cond := b.ensure()
	after := b.newBlock()
	var clauses []*ast.CaseClause
	var blocks []*CFGBlock
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		blk := b.newBlock()
		b.edge(cond, blk)
		if guards != nil {
			guards(cc, blk)
		}
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, cc)
		blocks = append(blocks, blk)
	}
	if !hasDefault {
		b.edge(cond, after)
	}
	b.frames = append(b.frames, cfgLoop{label: label, brk: after, isBreakble: true})
	for i, cc := range clauses {
		b.cur = blocks[i]
		if i+1 < len(blocks) {
			b.fallTarget = blocks[i+1]
		} else {
			b.fallTarget = nil
		}
		b.stmts(cc.Body)
		b.edge(b.cur, after)
	}
	b.fallTarget = nil
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(v *ast.SelectStmt) {
	label := b.takePending()
	cond := b.ensure()
	after := b.newBlock()
	b.frames = append(b.frames, cfgLoop{label: label, brk: after, isBreakble: true})
	for _, c := range v.Body.List {
		cc := c.(*ast.CommClause)
		blk := b.newBlock()
		b.edge(cond, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmts(cc.Body)
		b.edge(b.cur, after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	// select{} parks forever: after keeps no predecessor and the code
	// beyond it is correctly unreachable.
	b.cur = after
}

// terminalCall recognizes calls that never return: the panic builtin
// and the conventional process/goroutine terminators. Resolution is
// syntactic (no type info needed at CFG level); the names are specific
// enough that shadowing is not a practical concern in this module.
func terminalCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// String renders the graph for debugging and the CFG unit tests:
// "0->2,3" lines plus node counts.
func (c *CFG) String() string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "b%d", blk.Index)
		if blk == c.Entry {
			sb.WriteString("(entry)")
		}
		if blk == c.Exit {
			sb.WriteString("(exit)")
		}
		fmt.Fprintf(&sb, " nodes=%d ->", len(blk.Nodes))
		for i, s := range blk.Succs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
