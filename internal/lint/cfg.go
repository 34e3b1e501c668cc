package lint

import (
	"go/ast"
	"go/token"
)

// CFG is the control-flow graph of one function body, at basic-block
// granularity. Blocks[0] is the entry block; Exit is a virtual empty block
// every return, every terminating panic and the fall-off-the-end path feed
// into, so "reaches function exit" is a single-target reachability query.
//
// Block nodes are the statements and header expressions executed in the
// block, in execution order. Compound statements never appear whole:
// an if contributes its init statement and condition expression to the
// block that branches, a for its init/condition/post pieces to the
// respective blocks, a switch its init/tag, a range its operand (plus the
// per-iteration key/value assignment recorded in CFGBlock.Range). Bodies
// live in successor blocks. Walking every block's nodes therefore visits
// each executable node exactly once — function literals excepted: a
// FuncLit appears as an opaque expression in its enclosing block and has
// its own CFG.
type CFG struct {
	Blocks []*CFGBlock
	Entry  *CFGBlock
	Exit   *CFGBlock
}

// CFGBlock is one basic block.
type CFGBlock struct {
	// Index is the block's position in CFG.Blocks.
	Index int
	// Nodes holds the statements and header expressions of the block in
	// execution order (see the CFG doc comment).
	Nodes []ast.Node
	Succs []*CFGBlock
	Preds []*CFGBlock
	// Return is the return statement terminating the block, if any.
	Return *ast.ReturnStmt
	// Panics marks a block terminated by a call to the builtin panic.
	Panics bool
	// Range, when set, is the range statement whose per-iteration
	// key/value assignment this loop-head block performs.
	Range *ast.RangeStmt
	// Cond, when set, is the boolean expression this block branches on
	// (the condition of an if statement or of a for loop). TrueSucc and
	// FalseSucc are the successors taken when it evaluates true and false
	// respectively; both are also present in Succs. Analyzers use the
	// labels to refine facts along conditional edges (e.g. the probrange
	// interval analysis learns s <= 1 on the false edge of `if s > 1`).
	Cond      ast.Expr
	TrueSucc  *CFGBlock
	FalseSucc *CFGBlock
}

// BuildCFG constructs the CFG of a function body. A nil body (a function
// declared without one) yields a two-block entry→exit graph.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*CFGBlock),
	}
	entry := b.newBlock()
	b.cfg.Entry = entry
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	exit := b.newBlock()
	b.cfg.Exit = exit
	// Fall off the end of the body.
	b.jump(exit)
	for _, ret := range b.returns {
		addEdge(ret, exit)
	}
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			addEdge(g.from, target)
		}
	}
	return b.cfg
}

type pendingGoto struct {
	from  *CFGBlock
	label string
}

// loopCtx is one enclosing breakable (and possibly continuable) construct.
type loopCtx struct {
	label      string
	breakTo    *CFGBlock
	continueTo *CFGBlock // nil for switch/select
}

type cfgBuilder struct {
	cfg     *CFG
	cur     *CFGBlock // nil while the current point is unreachable
	loops   []loopCtx
	labels  map[string]*CFGBlock
	gotos   []pendingGoto
	returns []*CFGBlock // blocks ending in return or panic, wired to Exit last
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func addEdge(from, to *CFGBlock) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// jump ends the current block with an edge to target (no-op when the
// current point is unreachable) and leaves the builder unreachable.
func (b *cfgBuilder) jump(target *CFGBlock) {
	if b.cur != nil {
		addEdge(b.cur, target)
	}
	b.cur = nil
}

// startBlock makes target the current block; a reachable current block
// falls through into it first.
func (b *cfgBuilder) startBlock(target *CFGBlock) {
	if b.cur != nil {
		addEdge(b.cur, target)
	}
	b.cur = target
}

// add appends a node to the current block, reviving an unreachable point
// as a fresh predecessor-less block so dead statements still own a block.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// findLoop returns the innermost loop context matching the label (any
// context when label is empty; continue-capable contexts only when
// needContinue is set).
func (b *cfgBuilder) findLoop(label string, needContinue bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lc := &b.loops[i]
		if needContinue && lc.continueTo == nil {
			continue
		}
		if label == "" || lc.label == label {
			return lc
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.startBlock(lb)
		b.labels[s.Label.Name] = lb
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.add(s)
		b.cur.Return = s
		b.returns = append(b.returns, b.cur)
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if lc := b.findLoop(labelName(s.Label), false); lc != nil {
				b.jump(lc.breakTo)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if lc := b.findLoop(labelName(s.Label), true); lc != nil {
				b.jump(lc.continueTo)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			if b.cur != nil {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: labelName(s.Label)})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by the enclosing switch construction; the edge to the
			// next clause is added there. Nothing to record here.
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		after := b.newBlock()
		then := b.newBlock()
		addEdge(condBlk, then)
		condBlk.Cond, condBlk.TrueSucc = s.Cond, then
		b.cur = then
		b.stmtList(s.Body.List)
		b.jump(after)
		if s.Else != nil {
			els := b.newBlock()
			addEdge(condBlk, els)
			condBlk.FalseSucc = els
			b.cur = els
			b.stmt(s.Else, "")
			b.jump(after)
		} else {
			addEdge(condBlk, after)
			condBlk.FalseSucc = after
		}
		if len(after.Preds) > 0 {
			b.cur = after
		} else {
			b.cur = nil
		}

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.startBlock(head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		after := b.newBlock()
		post := b.newBlock()
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		if s.Cond != nil {
			addEdge(head, after)
		}
		body := b.newBlock()
		addEdge(head, body)
		if s.Cond != nil {
			head.Cond, head.TrueSucc, head.FalseSucc = s.Cond, body, after
		}
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.jump(post)
		b.loops = b.loops[:len(b.loops)-1]
		addEdge(post, head)
		if len(after.Preds) > 0 {
			b.cur = after
		} else {
			b.cur = nil
		}

	case *ast.RangeStmt:
		b.add(s.X)
		head := b.newBlock()
		head.Range = s
		b.startBlock(head)
		after := b.newBlock()
		addEdge(head, after) // the range may be empty / exhausted
		body := b.newBlock()
		addEdge(head, body)
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.jump(head)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label, func(cc *ast.CaseClause, blk *CFGBlock) {
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, nil)

	case *ast.SelectStmt:
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		after := b.newBlock()
		b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			blk := b.newBlock()
			addEdge(head, blk)
			if comm.Comm != nil {
				blk.Nodes = append(blk.Nodes, comm.Comm)
			}
			b.cur = blk
			b.stmtList(comm.Body)
			b.jump(after)
		}
		b.loops = b.loops[:len(b.loops)-1]
		// A select with no clauses blocks forever; otherwise execution
		// continues at after (possibly only via break).
		if len(after.Preds) > 0 {
			b.cur = after
		} else {
			b.cur = nil
		}

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.cur.Panics = true
			b.returns = append(b.returns, b.cur)
			b.cur = nil
		}

	default:
		// Assignments, declarations, go/defer/send/incdec/empty: straight-line.
		b.add(s)
	}
}

// switchClauses builds the clause blocks of a switch or type switch. All
// clause blocks hang off the header block (the evaluation order of case
// expressions is over-approximated as a free choice); fallthrough adds an
// edge to the following clause's block. addExprs, when non-nil, records the
// clause's case expressions in its block.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label string, addExprs func(*ast.CaseClause, *CFGBlock)) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	b.loops = append(b.loops, loopCtx{label: label, breakTo: after})
	blocks := make([]*CFGBlock, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		blocks[i] = b.newBlock()
		addEdge(head, blocks[i])
		if len(cc.List) == 0 {
			hasDefault = true
		}
		if addExprs != nil {
			addExprs(cc, blocks[i])
		}
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		if fallsThrough(cc.Body) && i+1 < len(clauses) {
			b.jump(blocks[i+1])
		} else {
			b.jump(after)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	if !hasDefault {
		addEdge(head, after)
	}
	if len(after.Preds) > 0 {
		b.cur = after
	} else {
		b.cur = nil
	}
}

// fallsThrough reports whether a case body ends in a fallthrough statement.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func labelName(l *ast.Ident) string {
	if l == nil {
		return ""
	}
	return l.Name
}

// isPanicCall reports whether e is a direct call to the predeclared panic.
// Identifier resolution is unnecessary: shadowing panic is already banned
// by convention, and a false positive only shortens the CFG conservatively.
func isPanicCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// Reachable returns the set of blocks reachable from Entry, indexed by
// block index.
func (c *CFG) Reachable() []bool {
	seen := make([]bool, len(c.Blocks))
	var walk func(*CFGBlock)
	walk = func(b *CFGBlock) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(c.Entry)
	return seen
}

// Dominators returns dom with dom[b][a] reporting that block a dominates
// block b: every path from Entry to b passes through a. Blocks unreachable
// from Entry are vacuously dominated by everything. It is the standard
// iterative dataflow computation over the predecessor sets.
func (c *CFG) Dominators() [][]bool {
	n := len(c.Blocks)
	dom := make([][]bool, n)
	for i := range dom {
		dom[i] = make([]bool, n)
		for j := range dom[i] {
			dom[i][j] = true // start from the universal set; Entry intersects it away
		}
	}
	for j := range dom[c.Entry.Index] {
		dom[c.Entry.Index][j] = j == c.Entry.Index
	}
	changed := true
	for changed {
		changed = false
		for _, b := range c.Blocks {
			if b == c.Entry || len(b.Preds) == 0 {
				continue // a predecessor-less block stays universal
			}
			for j := 0; j < n; j++ {
				if j == b.Index || !dom[b.Index][j] {
					continue
				}
				all := true
				for _, p := range b.Preds {
					if !dom[p.Index][j] {
						all = false
						break
					}
				}
				if !all {
					dom[b.Index][j] = false
					changed = true
				}
			}
		}
	}
	return dom
}
