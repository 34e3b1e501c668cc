package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// Epsbudget tracks values tainted from ε parameters (and Epsilon-carrying
// option structs) through the CFG and flags any path whose ε-fraction
// multipliers handed to truncating sinks sum to more than 1: the silent
// budget double-spend the error-budget ledger can only catch at runtime.
// Sinks are callees declared truncating by a //numerics:truncates
// annotation or the builtin registry (numeric.FoxGlynn,
// numeric.PoissonTruncation), with per-function summaries making the
// check transitive within the module. eps/2 splits and disjoint constant
// fractions pass; branch alternatives of budget splitters are kept
// correlated per return statement, so a callee returning either (ε/2, ε/2)
// or (ε, 0) never produces the impossible (ε, ε/2) combination.
var Epsbudget = &Analyzer{
	Name:    "epsbudget",
	Doc:     "flags paths whose ε-fraction spends on truncating callees exceed the whole budget",
	Version: 1,
	Run:     runEpsbudget,
}

// epsOverTol is the slack on the Σ fractions ≤ 1 test, absorbing the
// floating-point noise of fraction arithmetic (1/2 + 1/2 is exact, but a
// third-split 3·(1/3) is not).
const epsOverTol = 1e-9

func runEpsbudget(pass *Pass) error {
	s := pass.Summaries()
	seen := make(map[token.Pos]bool)
	report := func(d epsDiag) {
		if seen[d.call.Pos()] {
			return
		}
		seen[d.call.Pos()] = true
		name := "ε"
		if d.origin != nil {
			name = d.origin.Name()
		}
		if d.inLoop {
			pass.ReportNodef(d.call, "ε-spending call inside a loop: the %s budget is spent once per iteration", name)
			return
		}
		pass.ReportNodef(d.call, "ε budget over-committed: along one path %.3g× of budget %q is handed to truncating callees (want ≤ 1; split the budget, e.g. eps/2 per sink)", d.total, name)
	}
	pass.Preorder(Mask((*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)), func(n ast.Node) {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body == nil {
				return
			}
			// Annotated functions have passed the whole budget onward by
			// contract; their own body is not re-measured against it.
			if _, _, annotated := parseTruncates(fn.Doc); annotated {
				return
			}
			var params []*types.Var
			if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
				params = signatureParams(obj)
			}
			res := analyzeEps(s, pass.pkg, fn.Body, params)
			for _, d := range res.diags {
				report(d)
			}
		case *ast.FuncLit:
			res := analyzeEps(s, pass.pkg, fn.Body, funcLitParams(pass.Info, fn.Type))
			for _, d := range res.diags {
				report(d)
			}
		}
	})
	return nil
}

// epsDiag is one over-commitment found by the engine.
type epsDiag struct {
	call   *ast.CallExpr
	origin types.Object
	total  float64
	inLoop bool
}

// epsResult is the outcome of analysing one function body: the summary
// facts (spend per parameter, per-return result fractions) plus the
// diagnostics to report when the body belongs to the linted package.
type epsResult struct {
	spend   []float64
	returns [][]map[int]float64
	diags   []epsDiag
}

// scenarioCap bounds the cartesian enumeration of budget-splitter
// alternatives; choice points beyond it are merged by pointwise max.
const scenarioCap = 32

// analyzeEps runs the ε-taint accumulation over body. params lists the
// function's parameters (receiver first) — taint origins the resulting
// summary is expressed in; origins seeded from captured or local
// ε-variables contribute diagnostics only.
func analyzeEps(s *Summaries, pkg *Package, body *ast.BlockStmt, params []*types.Var) *epsResult {
	cfg := pkg.CFG(body)
	order, back := rpoAndBackEdges(cfg)
	loops := loopMembers(cfg, back)

	paramIdx := make(map[types.Object]int, len(params))
	for i, p := range params {
		paramIdx[p] = i
	}
	ev := &epsEval{
		s:        s,
		info:     pkg.Info,
		paramIdx: paramIdx,
		choices:  make(map[*ast.CallExpr]int),
	}

	// Choice points: calls whose callee summary keeps ≥ 2 correlated
	// return alternatives (budget splitters). Enumerated in source order so
	// scenario numbering is deterministic.
	var choiceCalls []*ast.CallExpr
	var choiceArity []int
	scenarios := 1
	for _, bi := range order {
		for _, node := range cfg.Blocks[bi].Nodes {
			walkCalls(node, func(call *ast.CallExpr) {
				alts := len(ev.calleeReturns(call))
				if alts >= 2 && scenarios*alts <= scenarioCap {
					choiceCalls = append(choiceCalls, call)
					choiceArity = append(choiceArity, alts)
					scenarios *= alts
				}
			})
		}
	}

	res := &epsResult{spend: make([]float64, len(params))}
	maxSpend := make(map[types.Object]float64)
	diagBest := make(map[*ast.CallExpr]epsDiag)

	for sc := 0; sc < scenarios; sc++ {
		rem := sc
		for i, call := range choiceCalls {
			ev.choices[call] = rem % choiceArity[i]
			rem /= choiceArity[i]
		}
		n := len(cfg.Blocks)
		outT := make([]Taint, n)
		outS := make([]map[types.Object]float64, n)
		var alternatives [][]map[int]float64
		for _, bi := range order {
			b := cfg.Blocks[bi]
			taint := Taint{}
			spend := map[types.Object]float64{}
			first := true
			for _, p := range b.Preds {
				if back[[2]int{p.Index, bi}] || outT[p.Index] == nil {
					continue
				}
				if first {
					taint = outT[p.Index].clone()
					for o, v := range outS[p.Index] {
						spend[o] = v
					}
					first = false
					continue
				}
				taint = joinTaint(taint, outT[p.Index])
				for o, v := range outS[p.Index] {
					if v > spend[o] {
						spend[o] = v
					}
				}
			}
			ev.taint, ev.spend = taint, spend
			ev.inLoop = loops[bi]
			for _, node := range b.Nodes {
				ev.node(node, res, diagBest)
				if ret, ok := node.(*ast.ReturnStmt); ok {
					alternatives = append(alternatives, ev.returnFracs(ret))
				}
			}
			if b.Range != nil {
				// Range bindings are fresh per-iteration values; ε taint
				// does not flow through collection elements.
				for _, e := range []ast.Expr{b.Range.Key, b.Range.Value} {
					if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
						ev.taint[defOrUse(ev.info, id)] = map[types.Object]float64{}
					}
				}
			}
			outT[bi], outS[bi] = ev.taint, ev.spend
			for o, v := range ev.spend {
				if v > maxSpend[o] {
					maxSpend[o] = v
				}
			}
		}
		// Keep the per-return alternatives of the first scenario only: a
		// caller enumerates this callee's scenarios itself through the
		// nested choice points, and mixing scenarios here would break the
		// correlation the tuples exist to preserve.
		if sc == 0 {
			res.returns = alternatives
		}
	}

	for o, v := range maxSpend {
		if i, ok := paramIdx[o]; ok && v > res.spend[i] {
			res.spend[i] = v
		}
	}
	for _, d := range diagBest {
		res.diags = append(res.diags, d)
	}
	return res
}

// epsEval evaluates ε fractions of expressions under one scenario.
type epsEval struct {
	s        *Summaries
	info     *types.Info
	paramIdx map[types.Object]int
	choices  map[*ast.CallExpr]int
	taint    Taint
	spend    map[types.Object]float64
	inLoop   bool
}

// node processes one CFG block node: spends of every call in the subtree,
// then taint updates for assignments and declarations.
func (ev *epsEval) node(node ast.Node, res *epsResult, diagBest map[*ast.CallExpr]epsDiag) {
	walkCalls(node, func(call *ast.CallExpr) { ev.spendCall(call, diagBest) })
	switch st := node.(type) {
	case *ast.AssignStmt:
		ev.assign(st.Lhs, st.Rhs, st.Tok)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					ev.assign(lhs, vs.Values, token.DEFINE)
				}
			}
		}
	}
}

// spendCall charges the callee's per-parameter spend against the caller's
// budget fractions and records a diagnostic when any origin exceeds 1.
func (ev *epsEval) spendCall(call *ast.CallExpr, diagBest map[*ast.CallExpr]epsDiag) {
	sum := ev.s.ForCall(ev.info, call)
	if len(sum.Spend) == 0 {
		return
	}
	args := callArgs(ev.info, call)
	for i, sp := range sum.Spend {
		if sp == 0 || i >= len(args) || args[i] == nil {
			continue
		}
		for origin, f := range ev.fracs(args[i]) {
			add := sp * f
			if add == 0 {
				continue
			}
			if ev.inLoop {
				d := epsDiag{call: call, origin: origin, inLoop: true}
				if _, ok := diagBest[call]; !ok {
					diagBest[call] = d
				}
				continue
			}
			total := ev.spend[origin] + add
			ev.spend[origin] = total
			if total > 1+epsOverTol {
				prev, ok := diagBest[call]
				if !ok || total > prev.total {
					diagBest[call] = epsDiag{call: call, origin: origin, total: total}
				}
			}
		}
	}
}

// assign updates taints for one (possibly parallel or tuple) assignment.
func (ev *epsEval) assign(lhs, rhs []ast.Expr, tok token.Token) {
	write := func(e ast.Expr, fr map[types.Object]float64) {
		id, ok := unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := defOrUse(ev.info, id)
		if obj == nil {
			return
		}
		ev.taint[obj] = fr
	}
	switch {
	case len(lhs) > 1 && len(rhs) == 1:
		// Tuple assignment from one call: per-result fractions of the
		// scenario-selected return alternative.
		call, ok := unparen(rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		results := ev.callResultFracs(call)
		for j, l := range lhs {
			var fr map[types.Object]float64
			if j < len(results) {
				fr = results[j]
			} else {
				fr = map[types.Object]float64{}
			}
			write(l, fr)
		}
	case len(lhs) == len(rhs):
		frs := make([]map[types.Object]float64, len(rhs))
		for i, r := range rhs {
			if tok == token.ADD_ASSIGN {
				frs[i] = addFracs(ev.fracs(lhs[i]), ev.fracs(r))
			} else if tok != token.ASSIGN && tok != token.DEFINE {
				// Other compound ops: keep the left side's fractions (a
				// conservative identity on the budget share).
				frs[i] = ev.fracs(lhs[i])
			} else {
				frs[i] = ev.fracs(r)
			}
		}
		for i, l := range lhs {
			write(l, frs[i])
		}
	}
}

// returnFracs records one return statement as a result-fraction tuple over
// the function's parameters (non-parameter origins are dropped: they are
// not visible to callers).
func (ev *epsEval) returnFracs(ret *ast.ReturnStmt) []map[int]float64 {
	out := make([]map[int]float64, 0, len(ret.Results))
	toIdx := func(fr map[types.Object]float64) map[int]float64 {
		m := make(map[int]float64)
		for o, f := range fr {
			if i, ok := ev.paramIdx[o]; ok && f != 0 {
				m[i] = f
			}
		}
		return m
	}
	if len(ret.Results) == 1 {
		if call, ok := unparen(ret.Results[0]).(*ast.CallExpr); ok {
			if results := ev.callResultFracs(call); len(results) > 1 {
				for _, fr := range results {
					out = append(out, toIdx(fr))
				}
				return out
			}
		}
	}
	for _, r := range ret.Results {
		out = append(out, toIdx(ev.fracs(r)))
	}
	return out
}

// calleeReturns fetches the callee's per-return alternatives.
func (ev *epsEval) calleeReturns(call *ast.CallExpr) [][]map[int]float64 {
	return ev.s.ForCall(ev.info, call).Returns
}

// callResultFracs composes the callee's return fractions (of its own
// parameters) with the fractions of the actual arguments, yielding
// per-result fractions in the caller's origins. The scenario's chosen
// alternative is used for registered choice points; other callees merge
// their alternatives by pointwise max.
func (ev *epsEval) callResultFracs(call *ast.CallExpr) []map[types.Object]float64 {
	alts := ev.calleeReturns(call)
	if len(alts) == 0 {
		return nil
	}
	alt := alts[0]
	if choice, ok := ev.choices[call]; ok && choice < len(alts) {
		alt = alts[choice]
	} else if len(alts) > 1 {
		alt = mergeAlternatives(alts)
	}
	args := callArgs(ev.info, call)
	out := make([]map[types.Object]float64, len(alt))
	for j, retFr := range alt {
		m := make(map[types.Object]float64)
		for i, f := range retFr {
			if i >= len(args) || args[i] == nil {
				continue
			}
			for origin, af := range ev.fracs(args[i]) {
				if v := f * af; v > m[origin] {
					m[origin] = v
				}
			}
		}
		out[j] = m
	}
	return out
}

// mergeAlternatives collapses return alternatives by pointwise max (the
// scenario-free fallback; loses correlation, never under-counts).
func mergeAlternatives(alts [][]map[int]float64) []map[int]float64 {
	width := 0
	for _, a := range alts {
		if len(a) > width {
			width = len(a)
		}
	}
	out := make([]map[int]float64, width)
	for j := range out {
		out[j] = make(map[int]float64)
	}
	for _, a := range alts {
		for j, m := range a {
			for i, f := range m {
				if f > out[j][i] {
					out[j][i] = f
				}
			}
		}
	}
	return out
}

// fracs computes the ε-origin fractions of an expression: for each origin
// (an ε parameter, an Epsilon-carrying struct parameter, or a captured
// ε variable) the constant multiplier the expression applies to it.
// Non-constant factors are taken as 1, a deliberate under-approximation:
// the analyzer only ever flags budget shares provable from constants.
func (ev *epsEval) fracs(e ast.Expr) map[types.Object]float64 {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := defOrUse(ev.info, x)
		if obj == nil {
			return nil
		}
		if fr, ok := ev.taint[obj]; ok {
			return fr
		}
		if v, ok := obj.(*types.Var); ok && (isEpsParam(v) || carriesEpsField(v.Type())) {
			return map[types.Object]float64{obj: 1}
		}
		return nil
	case *ast.SelectorExpr:
		if epsFieldName(x.Sel.Name) && (isFloat(ev.typeOf(x)) || carriesEpsField(ev.typeOf(x))) {
			return ev.fracs(x.X)
		}
		if carriesEpsField(ev.typeOf(x)) {
			// Budget-carrying struct reached through a field (c.opts):
			// follow the chain to its root.
			return ev.fracs(x.X)
		}
		return nil
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD:
			return addFracs(ev.fracs(x.X), ev.fracs(x.Y))
		case token.SUB:
			return ev.fracs(x.X)
		case token.MUL:
			if f, ok := constFloat(ev.info, x.Y); ok {
				return scaleFracs(ev.fracs(x.X), f)
			}
			if f, ok := constFloat(ev.info, x.X); ok {
				return scaleFracs(ev.fracs(x.Y), f)
			}
			return maxFracs(ev.fracs(x.X), ev.fracs(x.Y))
		case token.QUO:
			if f, ok := constFloat(ev.info, x.Y); ok && f != 0 {
				return scaleFracs(ev.fracs(x.X), 1/f)
			}
			return ev.fracs(x.X)
		}
		return nil
	case *ast.UnaryExpr:
		return ev.fracs(x.X)
	case *ast.CallExpr:
		results := ev.callResultFracs(x)
		if len(results) == 1 {
			return results[0]
		}
		return nil
	case *ast.CompositeLit:
		// An options struct built in place: the budget share is whatever
		// lands in its ε field.
		for _, el := range x.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && epsFieldName(key.Name) {
				return ev.fracs(kv.Value)
			}
		}
		return nil
	}
	return nil
}

func (ev *epsEval) typeOf(e ast.Expr) types.Type { return ev.info.TypeOf(e) }

func addFracs(a, b map[types.Object]float64) map[types.Object]float64 {
	out := make(map[types.Object]float64, len(a)+len(b))
	for o, f := range a {
		out[o] += f
	}
	for o, f := range b {
		out[o] += f
	}
	return out
}

func maxFracs(a, b map[types.Object]float64) map[types.Object]float64 {
	out := make(map[types.Object]float64, len(a)+len(b))
	for o, f := range a {
		out[o] = f
	}
	for o, f := range b {
		if f > out[o] {
			out[o] = f
		}
	}
	return out
}

func scaleFracs(a map[types.Object]float64, k float64) map[types.Object]float64 {
	if k < 0 {
		k = -k
	}
	out := make(map[types.Object]float64, len(a))
	for o, f := range a {
		out[o] = f * k
	}
	return out
}

// constFloat extracts the float value of a constant expression.
func constFloat(info *types.Info, e ast.Expr) (float64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return 0, false
	}
	f, _ := constant.Float64Val(v)
	return f, true
}

// carriesEpsField reports whether t (through pointers) is a struct with an
// ε-budget float field — an Options-style budget carrier.
func carriesEpsField(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if epsFieldName(f.Name()) && isFloat(f.Type()) {
			return true
		}
	}
	return false
}

// callArgs lists a call's arguments aligned with signatureParams: the
// receiver expression first for method calls, then the ordinary arguments.
// Package-qualified calls (numeric.FoxGlynn) have no receiver slot — the
// selector is a qualifier, not a selection, and prepending it would shift
// every argument off its parameter by one.
func callArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSelection := info.Selections[sel]; isSelection {
			out = append(out, sel.X)
		}
	}
	out = append(out, call.Args...)
	return out
}

// walkCalls visits every call expression within node in source order,
// without descending into function literals (separate functions with their
// own CFGs and analyses).
func walkCalls(node ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

// rpoAndBackEdges returns the reverse-post-order of the blocks reachable
// from Entry and the set of back edges (u→v with v an ancestor of u on the
// DFS stack) — the edges dropped to make the accumulation a DAG pass.
func rpoAndBackEdges(c *CFG) (order []int, back map[[2]int]bool) {
	back = make(map[[2]int]bool)
	state := make([]int, len(c.Blocks)) // 0 unvisited, 1 on stack, 2 done
	var post []int
	var walk func(b *CFGBlock)
	walk = func(b *CFGBlock) {
		state[b.Index] = 1
		for _, s := range b.Succs {
			switch state[s.Index] {
			case 0:
				walk(s)
			case 1:
				back[[2]int{b.Index, s.Index}] = true
			}
		}
		state[b.Index] = 2
		post = append(post, b.Index)
	}
	walk(c.Entry)
	order = make([]int, len(post))
	for i, bi := range post {
		order[len(post)-1-i] = bi
	}
	return order, back
}

// loopMembers marks every block inside a natural loop of some back edge.
func loopMembers(c *CFG, back map[[2]int]bool) map[int]bool {
	members := make(map[int]bool)
	for edge := range back {
		u, v := edge[0], edge[1]
		inLoop := map[int]bool{v: true}
		stack := []int{u}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if inLoop[x] {
				continue
			}
			inLoop[x] = true
			for _, p := range c.Blocks[x].Preds {
				stack = append(stack, p.Index)
			}
		}
		for b := range inLoop {
			members[b] = true
		}
	}
	return members
}

// Taint is a value-taint fact: for each tracked variable, the fraction of
// each taint origin the variable carries (join = pointwise max). The
// epsbudget analyzer instantiates origins as ε-parameters and fractions as
// the constant multipliers applied to them.
type Taint map[types.Object]map[types.Object]float64

// clone deep-copies a taint fact.
func (t Taint) clone() Taint {
	out := make(Taint, len(t))
	for v, origins := range t {
		m := make(map[types.Object]float64, len(origins))
		for o, f := range origins {
			m[o] = f
		}
		out[v] = m
	}
	return out
}

// joinTaint merges two taint facts by pointwise max.
func joinTaint(a, b Taint) Taint {
	out := a.clone()
	for v, origins := range b {
		m, ok := out[v]
		if !ok {
			m = make(map[types.Object]float64, len(origins))
			out[v] = m
		}
		for o, f := range origins {
			if f > m[o] {
				m[o] = f
			}
		}
	}
	return out
}
