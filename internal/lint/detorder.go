package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Detorder flags floating-point reductions whose summation order depends
// on the worker count of a parallel fan-out. Float addition is not
// associative: a transient probability assembled as Σ over per-worker
// partial buffers changes in the last ulps when the partition changes,
// so a result that must be reproducible across machines (CI baselines,
// the ledger's recorded budgets) cannot silently fold worker-count-many
// partials. The analyzer taints worker-count values (parallel.Resolve
// results, runtime.NumCPU/GOMAXPROCS, parameters named workers, Workers
// fields) through assignments and derivation helpers (rowCuts and
// friends), then reports float accumulations inside worker-count-shaped
// loops whose accumulator outlives the loop, and captured float scalars
// accumulated inside parallel.Do / parallel.For task literals.
//
// A deliberate fan-out-dependent reduction is declared with
//
//	//numerics:order-invariant [fanout=<helper>] <reason>
//
// on the function. The reason is mandatory. The optional fanout=<helper>
// token claims the function draws its partition from <helper>; the
// analyzer verifies the function really calls it with a worker-derived
// argument, which pins invariants like "this kernel fans out over the
// same rowCuts partition at every g" in the annotation itself.
var Detorder = &Analyzer{
	Name: "detorder",
	Doc:  "flags float reductions whose order depends on the parallel worker count",
	Run:  runDetorder,
}

const orderInvariantPrefix = "//numerics:order-invariant"

// parseOrderInvariant extracts a //numerics:order-invariant annotation.
func parseOrderInvariant(doc *ast.CommentGroup) (fanout, reason string, present bool, pos token.Pos) {
	if doc == nil {
		return "", "", false, token.NoPos
	}
	for _, c := range doc.List {
		if !strings.HasPrefix(c.Text, orderInvariantPrefix) {
			continue
		}
		present = true
		pos = c.Pos()
		rest := strings.TrimSpace(strings.TrimPrefix(c.Text, orderInvariantPrefix))
		if i := strings.Index(rest, "//"); i >= 0 {
			rest = strings.TrimSpace(rest[:i])
		}
		fields := strings.Fields(rest)
		i := 0
		if len(fields) > 0 {
			if f, ok := strings.CutPrefix(fields[0], "fanout="); ok {
				fanout = f
				i = 1
			}
		}
		reason = strings.Join(fields[i:], " ")
	}
	return fanout, reason, present, pos
}

// workerParamNames are parameter names seeding the worker-count taint.
var workerParamNames = map[string]bool{
	"workers": true, "nworkers": true, "numworkers": true,
}

// pkgPathHasSuffix reports whether p's import path is suffix or ends in
// "/"+suffix — module-path-independent matching, like builtinTruncates.
func pkgPathHasSuffix(p *types.Package, suffix string) bool {
	return p != nil && (p.Path() == suffix || strings.HasSuffix(p.Path(), "/"+suffix))
}

// isWorkerSourceCall reports calls that produce a worker count.
func isWorkerSourceCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch {
	case fn.Pkg().Path() == "runtime" && (fn.Name() == "NumCPU" || fn.Name() == "GOMAXPROCS"):
		return true
	case fn.Name() == "Resolve" && pkgPathHasSuffix(fn.Pkg(), "internal/parallel"):
		return true
	}
	return false
}

// workerTaint computes the set of objects in fd carrying a worker count
// (or a worker-count-sized shape: a slice allocated with a tainted
// length, the cut slice a partition helper returns). Object-level taint
// deliberately flows into function literals — captures share the object.
func workerTaint(info *types.Info, fd *ast.FuncDecl, fn *types.Func) map[types.Object]bool {
	taint := make(map[types.Object]bool)
	for _, p := range signatureParams(fn) {
		if workerParamNames[strings.ToLower(p.Name())] {
			taint[p] = true
		}
	}
	mark := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := defOrUse(info, id)
		if obj == nil || taint[obj] {
			return false
		}
		taint[obj] = true
		return true
	}
	var tainted func(e ast.Expr) bool
	tainted = func(e ast.Expr) bool {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return taint[defOrUse(info, x)]
		case *ast.BinaryExpr:
			return tainted(x.X) || tainted(x.Y)
		case *ast.UnaryExpr:
			return tainted(x.X)
		case *ast.SelectorExpr:
			if x.Sel.Name == "Workers" {
				return true
			}
			return taint[info.Uses[x.Sel]]
		case *ast.CallExpr:
			if isWorkerSourceCall(info, x) {
				return true
			}
			if isBuiltin(info, x, "len") || isBuiltin(info, x, "cap") {
				return len(x.Args) == 1 && tainted(x.Args[0])
			}
			if isBuiltin(info, x, "make") {
				for _, a := range x.Args[1:] {
					if tainted(a) {
						return true
					}
				}
				return false
			}
			if isBuiltin(info, x, "append") {
				return len(x.Args) > 0 && tainted(x.Args[0])
			}
			// Derivation helpers (rowCuts and the like): a worker count
			// in, a worker-shaped value out.
			for _, a := range x.Args {
				if tainted(a) {
					return true
				}
			}
			return false
		}
		// Indexing a worker-shaped slice yields data, not a worker count:
		// IndexExpr deliberately stops the taint.
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
					if tainted(s.Rhs[0]) {
						for _, lhs := range s.Lhs {
							if mark(lhs) {
								changed = true
							}
						}
					}
					return true
				}
				for i, lhs := range s.Lhs {
					if i < len(s.Rhs) && tainted(s.Rhs[i]) && mark(lhs) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) && tainted(s.Values[i]) && mark(name) {
						changed = true
					}
				}
			}
			return true
		})
	}
	return taint
}

func runDetorder(pass *Pass) error {
	cg := pass.pkg.CallGraph()
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
			taint := workerTaint(pass.Info, fd, fn)
			fanout, reason, present, pos := parseOrderInvariant(fd.Doc)
			if present {
				if reason == "" {
					pass.Reportf(pos, "//numerics:order-invariant on %s needs a reason", fd.Name.Name)
				}
				if fanout != "" {
					verifyFanoutClaim(pass, cg, fn, fd, fanout, taint, pos)
				}
				continue // declared: reductions here are accepted as-is
			}
			reported := make(map[ast.Node]bool)
			detWalkLoops(pass, taint, fd.Body, nil, reported)
			checkParallelTasks(pass, taint, fd.Body, reported)
		}
	}
	return nil
}

// verifyFanoutClaim checks that an order-invariant annotation claiming
// fanout=<helper> matches the body: the function must call the helper
// with a worker-derived argument.
func verifyFanoutClaim(pass *Pass, cg *CallGraph, fn *types.Func, fd *ast.FuncDecl, fanout string, taint map[types.Object]bool, pos token.Pos) {
	node := cg.Node(fn)
	site := node.CallsNamed(fanout)
	if site == nil {
		pass.Reportf(pos, "//numerics:order-invariant on %s claims fanout=%s but the function never calls %s",
			fd.Name.Name, fanout, fanout)
		return
	}
	info := pass.Info
	var tainted func(e ast.Expr) bool
	tainted = func(e ast.Expr) bool {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return taint[defOrUse(info, x)]
		case *ast.BinaryExpr:
			return tainted(x.X) || tainted(x.Y)
		case *ast.UnaryExpr:
			return tainted(x.X)
		case *ast.CallExpr:
			if isWorkerSourceCall(info, x) {
				return true
			}
			for _, a := range x.Args {
				if tainted(a) {
					return true
				}
			}
		case *ast.SelectorExpr:
			return x.Sel.Name == "Workers" || taint[info.Uses[x.Sel]]
		}
		return false
	}
	for _, a := range site.Call.Args {
		if tainted(a) {
			return
		}
	}
	pass.Reportf(pos, "//numerics:order-invariant on %s claims fanout=%s but no argument of the %s call is worker-derived",
		fd.Name.Name, fanout, fanout)
}

// detWalkLoops walks a body tracking the enclosing worker-count-shaped
// loops and reports float accumulations whose accumulator outlives the
// innermost one. Function literals keep the lexical loop context.
func detWalkLoops(pass *Pass, taint map[types.Object]bool, n ast.Node, loops []ast.Node, reported map[ast.Node]bool) {
	info := pass.Info
	var tainted func(e ast.Expr) bool
	tainted = func(e ast.Expr) bool {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return taint[defOrUse(info, x)]
		case *ast.BinaryExpr:
			return tainted(x.X) || tainted(x.Y)
		case *ast.UnaryExpr:
			return tainted(x.X)
		case *ast.CallExpr:
			if isBuiltin(info, x, "len") || isBuiltin(info, x, "cap") {
				return len(x.Args) == 1 && tainted(x.Args[0])
			}
			if isWorkerSourceCall(info, x) {
				return true
			}
		case *ast.SelectorExpr:
			return x.Sel.Name == "Workers" || taint[info.Uses[x.Sel]]
		}
		return false
	}
	workerFor := func(fs *ast.ForStmt) bool {
		cond, ok := fs.Cond.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch cond.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
			return tainted(cond.X) || tainted(cond.Y)
		}
		return false
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == n {
			return true
		}
		switch x := m.(type) {
		case *ast.ForStmt:
			l := loops
			if workerFor(x) {
				l = append(loops, ast.Node(x))
			}
			detWalkLoops(pass, taint, x.Body, l, reported)
			return false
		case *ast.RangeStmt:
			l := loops
			if tainted(x.X) {
				l = append(loops, ast.Node(x))
			}
			detWalkLoops(pass, taint, x.Body, l, reported)
			return false
		case *ast.AssignStmt:
			if len(loops) == 0 {
				return true
			}
			base, ok := accumTarget(info, x)
			if !ok {
				return true
			}
			inner := loops[len(loops)-1]
			obj := defOrUse(info, base)
			if obj == nil || (obj.Pos() >= inner.Pos() && obj.Pos() < inner.End()) {
				return true // a per-iteration accumulator resets each pass
			}
			reported[x] = true
			pass.ReportNodef(x, "float accumulation into %s inside a worker-count-shaped loop: the reduction order changes with the worker count (declare //numerics:order-invariant if intended)",
				base.Name)
		}
		return true
	})
}

// accumTarget returns the base identifier of a float accumulation
// statement (x += e, x -= e, x *= e, or x = x + e), with the target
// either a scalar or an indexed element.
func accumTarget(info *types.Info, as *ast.AssignStmt) (*ast.Ident, bool) {
	if len(as.Lhs) != 1 {
		return nil, false
	}
	lhs := unparen(as.Lhs[0])
	var base *ast.Ident
	switch t := lhs.(type) {
	case *ast.Ident:
		base = t
	case *ast.IndexExpr:
		b, ok := unparen(t.X).(*ast.Ident)
		if !ok {
			return nil, false
		}
		base = b
	default:
		return nil, false
	}
	if t := info.TypeOf(as.Lhs[0]); t == nil || !isFloat(t) {
		return nil, false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
		return base, true
	case token.ASSIGN:
		// x = x + e (or e + x).
		be, ok := unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
			return nil, false
		}
		lstr := types.ExprString(lhs)
		if types.ExprString(unparen(be.X)) == lstr || types.ExprString(unparen(be.Y)) == lstr {
			return base, true
		}
	}
	return nil, false
}

// checkParallelTasks reports captured float scalars accumulated inside
// parallel.Do / parallel.For task literals: concurrent tasks folding
// into one captured accumulator have a scheduling-dependent (and racy)
// reduction order. Indexed writes (y[i] += ...) are per-element and stay
// silent here; the loop-shape rule above covers their worker-count
// dependence.
func checkParallelTasks(pass *Pass, taint map[types.Object]bool, body *ast.BlockStmt, reported map[ast.Node]bool) {
	info := pass.Info
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || !pkgPathHasSuffix(fn.Pkg(), "internal/parallel") {
			return true
		}
		if fn.Name() != "Do" && fn.Name() != "For" {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok || reported[as] {
					return true
				}
				base, ok := accumTarget(info, as)
				if !ok {
					return true
				}
				if _, isIdx := unparen(as.Lhs[0]).(*ast.Ident); !isIdx {
					return true // indexed element: per-index, not a shared fold
				}
				obj := defOrUse(info, base)
				if obj == nil || (obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
					return true // task-local accumulator
				}
				reported[as] = true
				pass.ReportNodef(as, "captured float accumulator %s inside a parallel.%s task: concurrent tasks make the reduction order scheduling-dependent",
					base.Name, fn.Name())
				return true
			})
		}
		return true
	})
}
