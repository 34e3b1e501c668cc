package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Poolescape checks that every buffer obtained from a VecPool-style Get —
// directly, or through a callee whose summary marks a result pool-born —
// reaches a Put on every path out of the function, unless ownership
// demonstrably moves on: the buffer is returned to the caller, stored into
// a longer-lived structure, or captured by a closure. A plain alias
// (stepAcc = acc) only lends the buffer a second name: it is dropped when
// the last name holding it is rebound, and any of its names can Put or
// return it. The early-error return that silently drops a borrowed vector
// is exactly the leak this catches; the pooled hot path only stays
// allocation-free when no path loses a buffer.
var Poolescape = &Analyzer{
	Name:    "poolescape",
	Doc:     "flags pool-borrowed buffers that miss their Put on some path",
	Version: 2,
	Run:     runPoolescape,
}

func runPoolescape(pass *Pass) error {
	s := pass.Summaries()
	pass.Preorder(Mask((*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)), func(n ast.Node) {
		var ft *ast.FuncType
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			ft, body = fn.Type, fn.Body
		case *ast.FuncLit:
			ft, body = fn.Type, fn.Body
		}
		if body == nil {
			return
		}
		_, diags := analyzePool(pass.pkg, ft, body, s)
		for _, d := range diags {
			if d.overwrite {
				pass.ReportNodef(d.birth, "pool buffer %q is overwritten while still live (line %d): the previous buffer can no longer be returned to the pool", d.name, pass.Fset.Position(d.leak).Line)
				continue
			}
			pass.ReportNodef(d.birth, "pool buffer %q is not returned to the pool on the path leaving the function at line %d (add a Put, including on early error returns)", d.name, pass.Fset.Position(d.leak).Line)
		}
	})
	return nil
}

// poolBornResults is the summary hook: which of the function's results may
// carry a pool-born buffer to the caller.
func poolBornResults(pkg *Package, ft *ast.FuncType, body *ast.BlockStmt, s *Summaries) []bool {
	born, _ := analyzePool(pkg, ft, body, s)
	return born
}

// poolDiag is one dropped buffer: born at birth, lost at leak.
type poolDiag struct {
	birth     ast.Node
	name      string
	leak      token.Pos
	overwrite bool
}

// poolBirth is one tracked buffer: the object it is bound to, where the
// binding happens, and (for callee-born tuples) the sibling error object
// whose propagation exempts the failure path.
type poolBirth struct {
	obj    types.Object
	block  int
	node   int // index within the block's Nodes; tracking starts after it
	site   ast.Node
	errObj types.Object
}

// analyzePool runs the ownership automaton over body: it discovers pool
// births, walks every path from each birth, and reports paths on which a
// live buffer is dropped. It also derives which function results may hand
// a pool-born buffer to the caller.
func analyzePool(pkg *Package, ft *ast.FuncType, body *ast.BlockStmt, s *Summaries) ([]bool, []poolDiag) {
	info := pkg.Info
	cfg := pkg.CFG(body)
	nResults, namedResult := resultIndex(info, ft)
	born := make([]bool, nResults)

	// Results that are pool-born because a return hands back a pool-born
	// callee result directly (return c.PathProb(p)) — no local binding, so
	// the ownership walk below never sees them.
	for _, b := range cfg.Blocks {
		if b.Return == nil {
			continue
		}
		rs := b.Return
		if len(rs.Results) == 1 && nResults > 1 {
			if call, ok := unparen(rs.Results[0]).(*ast.CallExpr); ok {
				for j, pb := range s.ForCall(info, call).PoolBorn {
					if pb && j < nResults {
						born[j] = true
					}
				}
			}
			continue
		}
		for j, r := range rs.Results {
			if call, ok := unparen(r).(*ast.CallExpr); ok && j < nResults {
				if isPoolGet(info, call) {
					born[j] = true
					continue
				}
				pb := s.ForCall(info, call).PoolBorn
				if len(pb) == 1 && pb[0] {
					born[j] = true
				}
			}
		}
	}

	// Callee-born tracking is gated on the function having a pool to Put
	// into: a caller with no pool in reach receives ownership and the
	// buffer simply leaves the pooled regime (documented caveat).
	canPut := poolInReach(info, body)

	var births []poolBirth
	for bi, b := range cfg.Blocks {
		for ni, node := range b.Nodes {
			as, ok := node.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			if isPoolGet(info, call) && len(as.Lhs) == 1 {
				if obj := lhsObject(info, as.Lhs[0]); obj != nil {
					births = append(births, poolBirth{obj: obj, block: bi, node: ni, site: call})
				}
				continue
			}
			if !canPut {
				continue
			}
			pb := s.ForCall(info, call).PoolBorn
			if len(pb) == 0 {
				continue
			}
			var errObj types.Object
			if last := lhsObject(info, as.Lhs[len(as.Lhs)-1]); last != nil && isErrorType(last.Type()) {
				errObj = last
			}
			for j, isBorn := range pb {
				if !isBorn || j >= len(as.Lhs) {
					continue
				}
				if obj := lhsObject(info, as.Lhs[j]); obj != nil {
					births = append(births, poolBirth{obj: obj, block: bi, node: ni, site: call, errObj: errObj})
				}
			}
		}
	}

	var diags []poolDiag
	for _, birth := range births {
		w := &poolWalker{
			info:        info,
			cfg:         cfg,
			s:           s,
			birth:       birth,
			namedResult: namedResult,
			born:        born,
			visited:     make(map[poolState]bool),
			slot:        make(map[types.Object]uint),
		}
		w.walk(birth.block, birth.node+1, w.with(0, birth.obj), false)
		diags = append(diags, w.diags...)
	}
	return born, diags
}

// poolState memoises the ownership walk: same block, same entry point,
// same names holding the buffer, same sharing mode — the continuation is
// identical.
type poolState struct {
	block   int
	start   int
	holders holderSet
	shared  bool
}

// holderSet is the set of local names bound to the tracked buffer, one bit
// per name in the walker's slot table. A 65th distinct name would not fit;
// no function aliases one buffer that often.
type holderSet uint64

type poolWalker struct {
	info        *types.Info
	cfg         *CFG
	s           *Summaries
	birth       poolBirth
	namedResult map[types.Object]int
	born        []bool
	visited     map[poolState]bool
	diags       []poolDiag
	slot        map[types.Object]uint
}

// has reports whether obj is one of the names in h.
func (w *poolWalker) has(h holderSet, obj types.Object) bool {
	i, ok := w.slot[obj]
	return ok && h&(1<<i) != 0
}

// with adds obj to h.
func (w *poolWalker) with(h holderSet, obj types.Object) holderSet {
	i, ok := w.slot[obj]
	if !ok {
		i = uint(len(w.slot))
		w.slot[obj] = i
	}
	return h | 1<<i
}

// mentions reports whether the subtree references any name in h.
func (w *poolWalker) mentions(n ast.Node, h holderSet) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && w.has(h, defOrUse(w.info, id)) {
			found = true
		}
		return !found
	})
	return found
}

func (w *poolWalker) leak(at token.Pos, overwrite bool) {
	name := w.birth.obj.Name()
	for _, d := range w.diags {
		if d.leak == at {
			return
		}
	}
	w.diags = append(w.diags, poolDiag{birth: w.birth.site, name: name, leak: at, overwrite: overwrite})
}

// walk advances the ownership automaton from block b, node index start,
// with the buffer currently bound to the names in h. shared marks buffers
// a closure has captured: aliased beyond what the walk can see, so leaks
// are no longer provable (and not reported), but a later Put still ends
// tracking and a later return still hands the buffer to the caller.
func (w *poolWalker) walk(bi, start int, h holderSet, shared bool) {
	st := poolState{block: bi, start: start, holders: h, shared: shared}
	if w.visited[st] {
		return
	}
	w.visited[st] = true
	b := w.cfg.Blocks[bi]
	for i := start; i < len(b.Nodes); i++ {
		node := b.Nodes[i]
		if ret, ok := node.(*ast.ReturnStmt); ok {
			w.ret(ret, h, shared)
			return
		}
		switch act, next := w.scanNode(node, h); act {
		case poolPut:
			return
		case poolEscape:
			return
		case poolShare:
			shared = true
		case poolNone:
			h = next
		case poolLeak:
			if !shared {
				w.leak(node.Pos(), true)
				return
			}
		}
	}
	if b.Return != nil || b.Panics {
		// Return statements are handled above; panics unwind past the
		// pool's regime (the program is going down anyway).
		return
	}
	if b == w.cfg.Exit {
		// Fell off the end of the function with the buffer still live.
		if !shared {
			w.leak(body_end(w.cfg), false)
		}
		return
	}
	if len(b.Succs) == 0 {
		return
	}
	for _, s := range b.Succs {
		w.walk(s.Index, 0, h, shared)
	}
}

// body_end picks a position for "the function's end" leaks: the last
// return-ish block, or the entry.
func body_end(c *CFG) token.Pos {
	for i := len(c.Blocks) - 1; i >= 0; i-- {
		for j := len(c.Blocks[i].Nodes) - 1; j >= 0; j-- {
			if p := c.Blocks[i].Nodes[j].Pos(); p.IsValid() {
				return p
			}
		}
	}
	return token.NoPos
}

// ret decides what a return statement does to a live buffer.
func (w *poolWalker) ret(rs *ast.ReturnStmt, h holderSet, shared bool) {
	if len(rs.Results) == 0 {
		// Naked return: a named result holding the buffer hands it to the
		// caller; otherwise the buffer is dropped.
		handed := false
		for obj, j := range w.namedResult {
			if w.has(h, obj) {
				if j < len(w.born) {
					w.born[j] = true
				}
				handed = true
			}
		}
		if handed {
			return
		}
		if !shared {
			w.leak(rs.Pos(), false)
		}
		return
	}
	for j, r := range rs.Results {
		e := unparen(r)
		if sl, ok := e.(*ast.SliceExpr); ok {
			// Reslicing shares the backing array: still a transfer.
			e = unparen(sl.X)
		}
		if id, ok := e.(*ast.Ident); ok && w.has(h, defOrUse(w.info, id)) {
			if j < len(w.born) {
				w.born[j] = true
			}
			return
		}
	}
	// The buffer may still escape through a composite in the results
	// (return Result{Values: buf}) — ownership moves into the returned
	// value, not lost.
	for _, r := range rs.Results {
		if w.mentions(r, h) {
			return
		}
	}
	if w.birth.errObj != nil {
		// Propagating the sibling error of the birth assignment: on that
		// path the callee failed and no buffer was actually handed out.
		for _, r := range rs.Results {
			if exprMentions(w.info, r, w.birth.errObj) {
				return
			}
		}
	}
	if !shared {
		w.leak(rs.Pos(), false)
	}
}

type poolAction int

const (
	poolNone poolAction = iota
	poolPut
	poolEscape
	poolShare
	poolLeak
)

// scanNode classifies what one block node does to the buffer held by the
// names in h, and returns the names that hold it afterwards.
func (w *poolWalker) scanNode(node ast.Node, h holderSet) (poolAction, holderSet) {
	// Closure capture: the buffer is aliased beyond this walk's sight.
	// Tracking continues in shared mode — a worker-pool pattern hands the
	// buffer to goroutines and still returns (or Puts) it afterwards.
	capture := false
	ast.Inspect(node, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if w.mentions(lit, h) {
				capture = true
			}
			return false
		}
		return true
	})
	if capture {
		return poolShare, h
	}

	put, escape := false, false
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isPoolPut(w.info, call) && len(call.Args) == 1 {
			if id, ok := unparen(call.Args[0]).(*ast.Ident); ok && w.has(h, defOrUse(w.info, id)) {
				put = true
			}
		}
		if lit, ok := n.(*ast.CompositeLit); ok && w.mentions(lit, h) {
			// The buffer is packed into a longer-lived value.
			escape = true
		}
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(w.info, call, "append") {
			// append stores the buffer into the destination slice.
			for _, a := range call.Args[1:] {
				if w.mentions(a, h) {
					escape = true
				}
			}
		}
		return true
	})
	if put {
		return poolPut, h
	}
	if escape {
		return poolEscape, h
	}

	switch s := node.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			return w.rebind(h, s.Lhs, s.Rhs)
		}
	case *ast.DeclStmt:
		// var x = buf aliases the buffer; var x T inside a loop rebinds
		// a name that may hold it to the zero value.
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			break
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Values) != 0 && len(vs.Values) != len(vs.Names) {
				continue
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			act, next := w.rebind(h, lhs, vs.Values)
			if act != poolNone {
				return act, next
			}
			h = next
		}
	}
	return poolNone, h
}

// rebind applies the assignment lhs = rhs (rhs nil: zero values) to the
// names in h. A name assigned one of them becomes a holder; any other name
// assigned over stops holding the buffer, which is lost once no name
// holds it.
func (w *poolWalker) rebind(h holderSet, lhs, rhs []ast.Expr) (poolAction, holderSet) {
	next := h
	for i, l := range lhs {
		held := false
		if rhs != nil {
			id, ok := unparen(rhs[i]).(*ast.Ident)
			held = ok && w.has(h, defOrUse(w.info, id))
		}
		dst := lhsObject(w.info, l)
		switch {
		case held && dst == nil:
			// Stored into a field, map or index expression.
			return poolEscape, h
		case held:
			next = w.with(next, dst)
		case w.has(next, dst):
			next &^= 1 << w.slot[dst]
		}
	}
	if next == 0 {
		// Overwritten while live and the value is not on the right-hand
		// side under any name: the buffer is unreachable from here on.
		return poolLeak, h
	}
	return poolNone, next
}

// lhsObject resolves a bare-identifier assignment target ("_" gives nil).
func lhsObject(info *types.Info, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return defOrUse(info, id)
}

// exprMentions reports whether the expression subtree references obj.
func exprMentions(info *types.Info, e ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && defOrUse(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// isPoolGet matches `p.Get(...)` on a pool type yielding a float vector —
// the VecPool shape — and not sync.Pool (whose Get returns any).
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	if !isPoolMethod(info, call, "Get") {
		return false
	}
	t := info.TypeOf(call)
	sl, ok := t.(*types.Slice)
	return ok && isFloat(sl.Elem())
}

// isPoolPut matches `p.Put(buf)` on a pool type.
func isPoolPut(info *types.Info, call *ast.CallExpr) bool {
	return isPoolMethod(info, call, "Put")
}

func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return isPoolType(info.TypeOf(sel.X))
}

// isPoolType reports whether t (through pointers) is a named type whose
// name ends in "Pool".
func isPoolType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !strings.HasSuffix(named.Obj().Name(), "Pool") {
		return false
	}
	// sync.Pool is an arena of interface{} values, not a vector pool.
	return named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync"
}

// poolInReach reports whether the function can return buffers to a pool:
// its body touches a value that is a pool, or a struct carrying one.
func poolInReach(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		t := info.TypeOf(e)
		if t == nil {
			return true
		}
		if isPoolType(t) || structCarriesPool(t) {
			found = true
			return false
		}
		return true
	})
	return found
}

// structCarriesPool reports whether t (through pointers) is a struct with
// a pool-typed field, its own or promoted from a struct it embeds by
// value (which cannot embed itself, so the recursion ends).
func structCarriesPool(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isPoolType(f.Type()) {
			return true
		}
		if _, byValue := f.Type().Underlying().(*types.Struct); f.Embedded() && byValue && structCarriesPool(f.Type()) {
			return true
		}
	}
	return false
}

// resultIndex counts the function's results and maps named-result objects
// to their indices.
func resultIndex(info *types.Info, ft *ast.FuncType) (int, map[types.Object]int) {
	named := make(map[types.Object]int)
	n := 0
	if ft == nil || ft.Results == nil {
		return 0, named
	}
	for _, f := range ft.Results.List {
		if len(f.Names) == 0 {
			n++
			continue
		}
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				named[obj] = n
			}
			n++
		}
	}
	return n, named
}
