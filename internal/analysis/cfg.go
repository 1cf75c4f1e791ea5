package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// This file is the dataflow half of the pcflint framework: an
// intraprocedural control-flow graph over basic blocks, plus a generic
// forward may-analysis fixpoint. The CFG deliberately stays at the
// statement level — blocks hold simple statements and the control
// expressions that guard them, never compound statements — so an
// analyzer's transfer function can scan each node with a plain AST
// walk and trust that it never re-enters a branch it already handled.
// Function literals are opaque: their bodies are not merged into the
// enclosing graph (they need not run where they appear, or at all);
// analyzers that care build a separate CFG per literal via FuncLits.
// DESIGN.md §15 documents the construction rules.

// Block is one basic block: a maximal straight-line sequence of
// simple statements and control expressions, with explicit successor
// edges.
type Block struct {
	// Index is the block's position in CFG.Blocks (stable, build
	// order).
	Index int
	// Nodes holds the block's statements and control expressions in
	// execution order. Only simple statements appear (assignments,
	// calls, sends, returns, defers, ...) plus loop/if/switch control
	// expressions; compound statements are decomposed into blocks and
	// edges.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
}

// CFG is the control-flow graph of one function body. Entry starts the
// body; Exit is a synthetic block every return and fall-off-the-end
// path reaches. Deferred calls run at Exit regardless of where the
// defer statement executed, which is why they are collected separately.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Defers lists the argument of every defer statement in the body,
	// in source order. They execute at function exit, not at their
	// syntactic position.
	Defers []*ast.CallExpr
	// NonBlockingComm marks select communication statements that cannot
	// block because their select has a default clause. Analyzers that
	// treat channel operations as blocking consult this set.
	NonBlockingComm map[ast.Node]bool
}

// cfgBuilder threads the current block and the break/continue targets
// through the recursive construction.
type cfgBuilder struct {
	cfg *CFG
	cur *Block
	// breakTargets / continueTargets are stacks, innermost last. Each
	// entry carries the statement's label ("" when unlabeled) so
	// labeled break/continue resolve to the right level.
	breakTargets    []branchTarget
	continueTargets []branchTarget
}

type branchTarget struct {
	label string
	block *Block
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{NonBlockingComm: map[ast.Node]bool{}}
	b := &cfgBuilder{cfg: g}
	g.Entry = b.newBlock()
	b.cur = g.Entry
	g.Exit = b.newBlock()
	b.stmtList(body.List)
	// Falling off the end of the body reaches the exit.
	b.edge(b.cur, g.Exit)
	return g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock begins a new block reached from the current one.
func (b *cfgBuilder) startBlock() *Block {
	blk := b.newBlock()
	b.edge(b.cur, blk)
	return blk
}

// stmtList builds the statements in order.
func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Cond)
		head := b.cur
		join := b.newBlock()
		// Then branch.
		b.cur = b.newBlock()
		b.edge(head, b.cur)
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)
		// Else branch (or fallthrough edge from the head).
		if s.Else != nil {
			b.cur = b.newBlock()
			b.edge(head, b.cur)
			b.stmt(s.Else, "")
			b.edge(b.cur, join)
		} else {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		head := b.startBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		join := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}
		if s.Cond != nil {
			b.edge(head, join)
		}
		b.pushTargets(label, join, post)
		b.cur = b.newBlock()
		b.edge(head, b.cur)
		b.stmtList(s.Body.List)
		b.edge(b.cur, post)
		b.popTargets()
		b.cur = join

	case *ast.RangeStmt:
		b.cur.Nodes = append(b.cur.Nodes, s.X)
		head := b.startBlock()
		join := b.newBlock()
		b.edge(head, join) // the range may be empty
		b.pushTargets(label, join, head)
		b.cur = b.newBlock()
		b.edge(head, b.cur)
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.popTargets()
		b.cur = join

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		b.caseBlocks(s.Body.List, label, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		b.caseBlocks(s.Body.List, label, false)

	case *ast.SelectStmt:
		b.caseBlocks(s.Body.List, label, true)

	case *ast.BranchStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(b.breakTargets, s.Label); t != nil {
				b.edge(b.cur, t)
			} else {
				b.edge(b.cur, b.cfg.Exit)
			}
			b.cur = b.newBlock() // unreachable continuation
		case token.CONTINUE:
			if t := b.findTarget(b.continueTargets, s.Label); t != nil {
				b.edge(b.cur, t)
			} else {
				b.edge(b.cur, b.cfg.Exit)
			}
			b.cur = b.newBlock()
		case token.GOTO:
			// Rare in this repo; be conservative: treat like an exit so
			// facts do not leak across an unmodeled edge.
			b.edge(b.cur, b.cfg.Exit)
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// Handled by caseBlocks via the fallthrough edge; nothing to
			// do here (the statement is already recorded).
		}

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock()

	case *ast.DeferStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.cfg.Defers = append(b.cfg.Defers, s.Call)

	default:
		// Simple statement: assignment, expression, send, inc/dec, go,
		// declaration, empty.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// caseBlocks builds the shared switch/select shape: every clause is a
// block branching from the current one, all clauses join afterwards.
// For switches without a default the head also reaches the join
// directly; select clauses additionally record their communication
// statements as non-blocking when a default exists.
func (b *cfgBuilder) caseBlocks(clauses []ast.Stmt, label string, isSelect bool) {
	head := b.cur
	join := b.newBlock()
	hasDefault := false
	for _, c := range clauses {
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
		}
	}
	// break inside a case body exits the switch/select; continue still
	// refers to the enclosing loop, so only the break stack grows.
	b.breakTargets = append(b.breakTargets, branchTarget{label, join})
	var prevBody []ast.Stmt // for fallthrough
	var prevBlock *Block
	for _, c := range clauses {
		blk := b.newBlock()
		b.edge(head, blk)
		if prevBlock != nil && endsInFallthrough(prevBody) {
			b.edge(prevBlock, blk)
		}
		b.cur = blk
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				b.cur.Nodes = append(b.cur.Nodes, e)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				if isSelect && hasDefault {
					b.cfg.NonBlockingComm[c.Comm] = true
				}
				b.stmt(c.Comm, "")
			}
			body = c.Body
		}
		b.stmtList(body)
		b.edge(b.cur, join)
		prevBody, prevBlock = body, b.cur
	}
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	if !hasDefault && !isSelect {
		// A switch with no default may match nothing.
		b.edge(head, join)
	}
	if len(clauses) == 0 {
		b.edge(head, join)
	}
	b.cur = join
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) pushTargets(label string, brk, cont *Block) {
	b.breakTargets = append(b.breakTargets, branchTarget{label, brk})
	b.continueTargets = append(b.continueTargets, branchTarget{label, cont})
}

func (b *cfgBuilder) popTargets() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
}

// findTarget resolves a break/continue label against a target stack:
// nil label means innermost, otherwise the entry registered under the
// label. Returns nil when nothing matches (e.g. break inside a bare
// switch already popped — the caller falls back to the exit block).
func (b *cfgBuilder) findTarget(stack []branchTarget, label *ast.Ident) *Block {
	if len(stack) == 0 {
		return nil
	}
	if label == nil {
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return nil
}

// FuncLits returns the function literals directly contained in body,
// not descending into nested literals. Analyzers use it to recurse:
// each literal gets its own CFG.
func FuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
			return false
		}
		return true
	})
	return out
}

// FactSet is a set of dataflow facts. Sets are treated as immutable by
// the fixpoint engine: transfer functions return a new set when they
// change anything.
type FactSet[F comparable] map[F]struct{}

// Has reports membership.
func (s FactSet[F]) Has(f F) bool { _, ok := s[f]; return ok }

// With returns s ∪ {f}, sharing storage when f is already present.
func (s FactSet[F]) With(f F) FactSet[F] {
	if s.Has(f) {
		return s
	}
	out := make(FactSet[F], len(s)+1)
	for k := range s {
		out[k] = struct{}{}
	}
	out[f] = struct{}{}
	return out
}

// Without returns s \ {f}, sharing storage when f is absent.
func (s FactSet[F]) Without(f F) FactSet[F] {
	if !s.Has(f) {
		return s
	}
	out := make(FactSet[F], len(s))
	for k := range s {
		if k != f {
			out[k] = struct{}{}
		}
	}
	return out
}

// union returns a ∪ b, reusing a when b adds nothing.
func union[F comparable](a, b FactSet[F]) FactSet[F] {
	missing := 0
	for k := range b {
		if !a.Has(k) {
			missing++
		}
	}
	if missing == 0 {
		return a
	}
	out := make(FactSet[F], len(a)+missing)
	for k := range a {
		out[k] = struct{}{}
	}
	for k := range b {
		out[k] = struct{}{}
	}
	return out
}

func equalSets[F comparable](a, b FactSet[F]) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b.Has(k) {
			return false
		}
	}
	return true
}

// ForwardMay runs a forward may-analysis over the CFG to fixpoint:
// facts merge by union at block joins, so a fact holds at a point if it
// holds on SOME path there. transfer must be monotone (it may add or
// remove facts per node, but its output must depend only on the node
// and its input set). The returned map gives the fact set at entry to
// each block; replaying transfer over a block's nodes recovers the
// state at any interior point.
func ForwardMay[F comparable](g *CFG, transfer func(n ast.Node, in FactSet[F]) FactSet[F]) map[*Block]FactSet[F] {
	in := make(map[*Block]FactSet[F], len(g.Blocks))
	for _, blk := range g.Blocks {
		in[blk] = FactSet[F]{}
	}
	// Worklist over block indices; seeded with every block so
	// unreachable blocks still get their (empty) state.
	work := make([]*Block, len(g.Blocks))
	copy(work, g.Blocks)
	queued := make([]bool, len(g.Blocks))
	for i := range queued {
		queued[i] = true
	}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false
		out := in[blk]
		for _, n := range blk.Nodes {
			out = transfer(n, out)
		}
		for _, succ := range blk.Succs {
			merged := union(in[succ], out)
			if !equalSets(merged, in[succ]) {
				in[succ] = merged
				if !queued[succ.Index] {
					queued[succ.Index] = true
					work = append(work, succ)
				}
			}
		}
	}
	return in
}

// exprString renders a restricted expression class — the receivers of
// Lock/Unlock calls and addressable field chains — to a stable string
// used as a dataflow fact key. Unrenderable shapes fold to a
// position-independent placeholder so two occurrences of the same
// syntax still key identically.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

// inspectShallow walks a CFG node the way transfer functions should:
// a full AST walk that does not descend into function literals (their
// bodies run elsewhere, if at all).
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return fn(m)
	})
}
