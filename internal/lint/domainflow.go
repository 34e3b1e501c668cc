package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Domainflow flags arithmetic that mixes log-space and linear-space
// values. The numeric kernels keep Poisson terms in log space until the
// last moment (PoissonPMF returns exp(-λ + n·log λ − log n!)); a caller
// that adds such a log-space quantity to a linear probability,
// exponentiates a value that is already linear, or takes the log of a
// value that is already logarithmic produces garbage that no later clamp
// can repair. Domains come from //numerics:domain
// annotations on entry points and are propagated bottom-up through
// unannotated helpers by the summary engine, per-value through each
// function by SSA.
//
// Rate-domain values are exempt from the additive mixing rule: log-space
// exponent arithmetic (−q·t + n·log(q·t)) legitimately adds rates to
// logarithms.
var Domainflow = &Analyzer{
	Name: "domainflow",
	Doc:  "flags arithmetic mixing log-space and linear-space values (declared via //numerics:domain)",
	Run:  runDomainflow,
}

// builtinDomain assigns result domains to the standard-library
// transcendentals that convert between spaces.
func builtinDomain(fn *types.Func) Domain {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
		return DomUnknown
	}
	switch fn.Name() {
	case "Log", "Log2", "Log10", "Log1p":
		return DomLog
	case "Exp", "Exp2", "Expm1":
		return DomLinear
	}
	return DomUnknown
}

// isMathCall reports whether call invokes math.<one of names>.
func isMathCall(info *types.Info, call *ast.CallExpr, names ...string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// domainEval evaluates the numeric domain of expressions within one
// function frame (a declaration body or a function literal body), using
// the frame's SSA to follow values through assignments and φs, and the
// summary engine for callee result domains.
type domainEval struct {
	sums      *Summaries
	pkg       *Package
	ssa       *SSA
	paramDoms map[*types.Var]Domain
	memo      map[*SSAValue]Domain
	busy      map[*SSAValue]bool
}

func newDomainEval(sums *Summaries, pkg *Package, body *ast.BlockStmt, params []*types.Var, paramDoms map[int]Domain) *domainEval {
	byVar := make(map[*types.Var]Domain, len(paramDoms))
	for i, d := range paramDoms {
		if i < len(params) {
			byVar[params[i]] = d
		}
	}
	return &domainEval{
		sums:      sums,
		pkg:       pkg,
		ssa:       pkg.SSA(body, params),
		paramDoms: byVar,
		memo:      make(map[*SSAValue]Domain),
		busy:      make(map[*SSAValue]bool),
	}
}

// of evaluates the domain of an expression. Constants are domain-free
// (adding a constant shifts either space legitimately), so they come back
// DomUnknown and never participate in findings.
func (e *domainEval) of(x ast.Expr) Domain {
	x = unparen(x)
	if tv, ok := e.pkg.Info.Types[x]; ok && tv.Value != nil {
		return DomUnknown
	}
	switch x := x.(type) {
	case *ast.Ident:
		v, ok := e.pkg.Info.Uses[x].(*types.Var)
		if !ok {
			return DomUnknown
		}
		if val, ok := e.ssa.UseVal[x]; ok {
			return e.valDomain(val)
		}
		// A variable captured from an enclosing frame: the only portable
		// fact is its declared parameter domain, if any.
		return e.paramDoms[v]
	case *ast.CallExpr:
		return e.callDomain(x)
	case *ast.UnaryExpr:
		if x.Op == token.SUB || x.Op == token.ADD {
			return e.of(x.X)
		}
	case *ast.BinaryExpr:
		return binopDomain(x.Op, e.of(x.X), e.of(x.Y))
	case *ast.IndexExpr:
		// Elements of a domain-tagged slice share the slice's domain.
		return e.of(x.X)
	}
	return DomUnknown
}

// callDomain resolves the result domain of a call through the summary
// engine (annotation, builtin registry, or bottom-up inference).
func (e *domainEval) callDomain(call *ast.CallExpr) Domain {
	fn := calleeFunc(e.pkg.Info, call)
	if fn == nil {
		return DomUnknown
	}
	if d := builtinDomain(fn); d != DomUnknown {
		return d
	}
	return e.sums.Of(fn).ResultDomain
}

// valDomain evaluates the domain of one SSA value, memoised; cycles
// (loop-carried φs) resolve to the join of their acyclic inputs.
func (e *domainEval) valDomain(v *SSAValue) Domain {
	if v == nil {
		return DomUnknown
	}
	if d, ok := e.memo[v]; ok {
		return d
	}
	if e.busy[v] {
		return DomUnknown
	}
	e.busy[v] = true
	d := e.valDomainUncached(v)
	delete(e.busy, v)
	e.memo[v] = d
	return d
}

func (e *domainEval) valDomainUncached(v *SSAValue) Domain {
	if v.Phi != nil {
		// Join: all known inputs must agree; a disagreement (or an unknown
		// input) degrades to unknown rather than guessing.
		out := DomUnknown
		for _, a := range v.Phi.Args {
			if a == nil {
				continue
			}
			if e.busy[a] {
				continue // the loop-carried input; the acyclic ones decide
			}
			ad := e.valDomain(a)
			switch {
			case ad == DomUnknown:
				return DomUnknown
			case out == DomUnknown:
				out = ad
			case out != ad:
				return DomUnknown
			}
		}
		return out
	}
	if v.Def == nil {
		return e.paramDoms[v.Var] // parameter entry value (or untracked zero)
	}
	switch def := v.Def.(type) {
	case *ast.AssignStmt:
		if def.Tok == token.ASSIGN || def.Tok == token.DEFINE {
			if v.Rhs != nil {
				return e.of(v.Rhs)
			}
			return DomUnknown
		}
		// Compound assignment x op= rhs: the new value is old op rhs.
		old := e.compoundOld(def)
		if v.Rhs == nil {
			return old
		}
		return binopDomain(compoundOp(def.Tok), old, e.of(v.Rhs))
	case *ast.IncDecStmt:
		return e.compoundOldIdent(def.X)
	case *ast.DeclStmt:
		if v.Rhs != nil {
			return e.of(v.Rhs)
		}
		return DomUnknown
	case *ast.RangeStmt:
		// The value binding takes the element domain of the ranged
		// expression; the key (an index) has none.
		if id, ok := def.Value.(*ast.Ident); ok && defOrUse(e.pkg.Info, id) == types.Object(v.Var) {
			return e.of(def.X)
		}
		return DomUnknown
	}
	return DomUnknown
}

// compoundOld resolves the pre-assignment value of a compound
// assignment's target.
func (e *domainEval) compoundOld(as *ast.AssignStmt) Domain {
	if len(as.Lhs) == 1 {
		return e.compoundOldIdent(as.Lhs[0])
	}
	return DomUnknown
}

func (e *domainEval) compoundOldIdent(lhs ast.Expr) Domain {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok {
		return DomUnknown
	}
	if val, ok := e.ssa.UseVal[id]; ok {
		return e.valDomain(val)
	}
	return DomUnknown
}

// compoundOp maps a compound-assignment token to its binary operator.
func compoundOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	}
	return token.ILLEGAL
}

// binopDomain combines operand domains under a binary operator.
func binopDomain(op token.Token, a, b Domain) Domain {
	switch op {
	case token.ADD, token.SUB:
		switch {
		case a == b:
			return a
		case a.LinearFamily() && b.LinearFamily():
			return DomLinear
		case (a == DomLog && b == DomRate) || (a == DomRate && b == DomLog):
			// Exponent arithmetic: −q·t + n·log(q·t) stays log-space.
			return DomLog
		}
		return DomUnknown
	case token.MUL:
		switch {
		case a == DomLog && b == DomLog:
			return DomUnknown // multiplying two logarithms has no space
		case a == DomLog || b == DomLog:
			return DomLog // a scaled log quantity (n·log q)
		case a == DomProb && b == DomProb:
			return DomProb // products of probabilities stay in [0,1]
		case a.LinearFamily() && b.LinearFamily():
			return DomLinear
		}
		return DomUnknown
	case token.QUO:
		switch {
		case a == DomLog && b != DomLog:
			return DomLog
		case a.LinearFamily() && b.LinearFamily():
			return DomLinear
		}
		return DomUnknown
	}
	return DomUnknown
}

// mixes reports an additive log/linear mix: one side logarithmic, the
// other a linear-family value other than a rate.
func mixes(a, b Domain) bool {
	if a == DomLog {
		a, b = b, a
	}
	return b == DomLog && a.LinearFamily() && a != DomRate
}

// producedByExp reports whether the expression (or the SSA values behind
// it) is a result of math.Exp — the double-exponentiation test.
func producedByExp(e *domainEval, x ast.Expr) bool {
	x = unparen(x)
	if call, ok := x.(*ast.CallExpr); ok {
		return isMathCall(e.pkg.Info, call, "Exp", "Exp2", "Expm1")
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	val, ok := e.ssa.UseVal[id]
	if !ok {
		return false
	}
	concrete := val.ConcreteValues()
	if len(concrete) == 0 {
		return false
	}
	for _, c := range concrete {
		if c.Rhs == nil {
			return false
		}
		call, ok := unparen(c.Rhs).(*ast.CallExpr)
		if !ok || !isMathCall(e.pkg.Info, call, "Exp", "Exp2", "Expm1") {
			return false
		}
	}
	return true
}

func runDomainflow(pass *Pass) error {
	sums := pass.Summaries()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := sums.Of(fn)
			for _, bad := range sum.BadDomains {
				pass.Reportf(bad.Pos, "bad //numerics:domain token %q: %s", bad.Term, bad.Reason)
			}
			params := signatureParams(fn)
			checkDomainFrame(pass, sums, fd.Body, params, sum.ParamDomains, sum, fd.Name.Name)
		}
	}
	return nil
}

// checkDomainFrame runs the domain checks over one function frame,
// recursing into function literals with fresh frames (their bodies have
// their own CFGs and SSA; captured values degrade to unknown).
func checkDomainFrame(pass *Pass, sums *Summaries, body *ast.BlockStmt, params []*types.Var, paramDoms map[int]Domain, sum *FuncSummary, name string) {
	eval := newDomainEval(sums, pass.pkg, body, params, paramDoms)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			checkDomainFrame(pass, sums, x.Body, funcLitParams(pass.Info, x.Type), nil, nil, name+" literal")
			return false
		case *ast.BinaryExpr:
			if x.Op != token.ADD && x.Op != token.SUB {
				return true
			}
			if t := pass.TypeOf(x); t == nil || !isFloat(t) {
				return true
			}
			a, b := eval.of(x.X), eval.of(x.Y)
			if mixes(a, b) {
				pass.ReportNodef(x, "mixes log-space and linear-space values: %s operand %s %s operand",
					a, x.Op, b)
			}
		case *ast.CallExpr:
			checkDomainCall(pass, eval, x)
		case *ast.ReturnStmt:
			if sum == nil || !sum.DomainAnnotated || sum.ResultDomain == DomUnknown {
				return true
			}
			for _, res := range x.Results {
				if t := pass.TypeOf(res); t == nil || !(isFloat(t) || isFloatSlice(t)) {
					continue
				}
				got := eval.of(res)
				if got == DomUnknown || got == sum.ResultDomain {
					continue
				}
				if got.LinearFamily() != sum.ResultDomain.LinearFamily() {
					pass.ReportNodef(res, "returns a %s-space value but %s declares //numerics:domain %s",
						got, name, sum.ResultDomain)
				}
			}
		}
		return true
	})
}

// checkDomainCall checks one call: the transcendental conversions, and
// arguments against the callee's declared parameter domains.
func checkDomainCall(pass *Pass, eval *domainEval, call *ast.CallExpr) {
	info := pass.Info
	if isMathCall(info, call, "Exp", "Exp2", "Expm1") && len(call.Args) == 1 {
		arg := call.Args[0]
		if producedByExp(eval, arg) {
			pass.ReportNodef(call, "double exponentiation: math.Exp of a value already produced by math.Exp")
		} else if d := eval.of(arg); d == DomProb {
			pass.ReportNodef(call, "math.Exp applied to a prob-domain value; exponents live in log or rate space")
		}
		return
	}
	if isMathCall(info, call, "Log", "Log2", "Log10", "Log1p") && len(call.Args) == 1 {
		if d := eval.of(call.Args[0]); d == DomLog {
			pass.ReportNodef(call, "math.Log applied to a log-space value")
		}
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	sum := eval.sums.Of(fn)
	if len(sum.ParamDomains) == 0 {
		return
	}
	// Parameter indices are receiver-first; a method call's receiver is in
	// the selector, so argument j maps to parameter j+offset.
	offset := 0
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		offset = 1
	}
	params := signatureParams(fn)
	for j, arg := range call.Args {
		idx := j + offset
		want, ok := sum.ParamDomains[idx]
		if !ok || idx >= len(params) {
			continue
		}
		got := eval.of(arg)
		if got == DomUnknown || got == want {
			continue
		}
		if got.LinearFamily() != want.LinearFamily() {
			pass.ReportNodef(arg, "passes a %s-space value to parameter %s of %s, declared //numerics:domain %s",
				got, params[idx].Name(), fn.Name(), want)
		}
	}
}

// isFloatSlice reports whether t is a slice of floating-point elements.
func isFloatSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && isFloat(s.Elem())
}

// inferResultDomain derives the result domain of an unannotated function
// from its return expressions: when every top-level return yields the
// same known domain for the first float (or float-slice) result, the
// function is a producer of that domain for its callers. Called from the
// summary engine under its recursion guard.
func inferResultDomain(s *Summaries, pkg *Package, decl *ast.FuncDecl, params []*types.Var, paramDoms map[int]Domain) Domain {
	if decl.Body == nil || decl.Type.Results == nil {
		return DomUnknown
	}
	// Position of the first float-ish result.
	resIdx := -1
	idx := 0
	for _, field := range decl.Type.Results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		t := pkg.Info.TypeOf(field.Type)
		if t != nil && (isFloat(t) || isFloatSlice(t)) && resIdx < 0 {
			resIdx = idx
		}
		idx += n
	}
	if resIdx < 0 {
		return DomUnknown
	}
	eval := newDomainEval(s, pkg, decl.Body, params, paramDoms)
	out := DomUnknown
	conflict := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || conflict || resIdx >= len(ret.Results) {
			return true
		}
		d := eval.of(ret.Results[resIdx])
		switch {
		case d == DomUnknown:
			conflict = true // one uncommitted path spoils the inference
		case out == DomUnknown:
			out = d
		case out != d:
			conflict = true
		}
		return true
	})
	if conflict {
		return DomUnknown
	}
	return out
}
