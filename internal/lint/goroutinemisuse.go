package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Goroutinemisuse flags concurrency patterns that are either racy or that
// subvert the module's step-team design:
//
//   - raw `go` statements outside internal/parallel — all fan-out must go
//     through For or Steps so Workers=1 remains a strict sequential mode
//     and every helper comes from the GOMAXPROCS−1 helper budget;
//   - `wg.Add(...)` inside the spawned function body — the classic race
//     where the goroutine may not have run Add before the parent's Wait;
//   - capturing a loop variable in a spawned function under a module go
//     version below 1.22 (per-iteration loop variables fixed the hazard);
//   - entering a parallel region (parallel.For, ForSteps or Steps)
//     while holding a mutex — the caller runs tasks too, so any task
//     that takes the same lock deadlocks;
//   - nesting a parallel region lexically inside a worker body unless the
//     inner call forces workers == 1 — the outer region's helpers already
//     hold the helper budget, so the inner one cuts parts that run on the
//     caller.
var Goroutinemisuse = &Analyzer{
	Name: "goroutinemisuse",
	Doc:  "flags raw go statements, wg.Add in the spawned body, old-Go loop-variable capture, and parallel regions entered under a lock or nested in a worker",
	Run:  runGoroutinemisuse,
}

// parallelPkgSuffix identifies the module's fan-out package; matched by
// suffix so the testdata fake package qualifies too.
const parallelPkgSuffix = "internal/parallel"

func runGoroutinemisuse(pass *Pass) error {
	inParallelPkg := strings.HasSuffix(pass.PkgPath, parallelPkgSuffix)

	mask := Mask((*ast.GoStmt)(nil), (*ast.CallExpr)(nil))
	pass.Inspect(mask, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !inParallelPkg {
				pass.ReportNodef(n, "raw go statement outside internal/parallel; use parallel.For or parallel.Steps so Workers=1 stays sequential and the helper budget is not bypassed")
			}
			if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
				checkSpawnedBody(pass, lit)
			}
		case *ast.CallExpr:
			_, tasks, ok := parallelTasks(pass.Info, n)
			if !ok {
				return
			}
			if held := heldLockNames(heldLocks(stack)); len(held) > 0 {
				pass.ReportNodef(n, "parallel region entered while holding %s; the caller runs tasks too, so a task taking the same lock deadlocks",
					strings.Join(held, ", "))
			}
			checkNestedRegion(pass, n, stack)
			for _, arg := range tasks {
				if lit, ok := unparen(arg).(*ast.FuncLit); ok {
					checkSpawnedBody(pass, lit)
				}
			}
		}
	})
	return nil
}

// parallelTasks reports whether call enters a parallel region — one of
// the module's fan-out entry points — and returns the region's name and
// the arguments that run as its tasks: the body of For and ForSteps, the
// part of Steps. The loop argument of Steps and ForSteps runs on the
// caller and is not a task.
func parallelTasks(info *types.Info, call *ast.CallExpr) (name string, tasks []ast.Expr, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil || !pkgPathHasSuffix(fn.Pkg(), parallelPkgSuffix) {
		return "", nil, false
	}
	task := -1
	switch fn.Name() {
	case "For", "ForSteps":
		task = 2
	case "Steps":
		task = 1
	}
	if task < 0 || len(call.Args) <= task {
		return "", nil, false
	}
	return fn.Name(), call.Args[task : task+1], true
}

// checkSpawnedBody inspects a function literal that will run on another
// goroutine: wg.Add inside it races with the parent's Wait, and loop
// variables captured by it are per-loop (not per-iteration) before go
// 1.22.
func checkSpawnedBody(pass *Pass, lit *ast.FuncLit) {
	perIteration := goVersionAtLeast(pass.GoVersion, 1, 22)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // a nested literal is not (necessarily) spawned
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && isWaitGroup(pass.TypeOf(sel.X)) {
				pass.ReportNodef(n, "%s.Add inside the spawned goroutine races with Wait; call Add before spawning", types.ExprString(sel.X))
			}
		case *ast.Ident:
			if perIteration {
				return true
			}
			if v, ok := pass.Info.Uses[n].(*types.Var); ok && isLoopVarOutside(pass, v, lit) {
				pass.ReportNodef(n, "goroutine captures loop variable %s; per-iteration semantics need go >= 1.22 (module is %s) — pass it as an argument or shadow it",
					n.Name, pass.GoVersion)
			}
		}
		return true
	})
}

// checkNestedRegion reports call if it sits lexically inside a worker body
// of an enclosing parallel region, unless its workers argument is the
// constant 1 (the sequential escape hatch of For and ForSteps).
func checkNestedRegion(pass *Pass, call *ast.CallExpr, stack []ast.Node) {
	fn := calleeFunc(pass.Info, call)
	if (fn.Name() == "For" || fn.Name() == "ForSteps") && len(call.Args) > 0 {
		if v, ok := exactIntValue(pass.Info, call.Args[0]); ok && v == 1 {
			return
		}
	}
	// Inside a FuncLit that is an argument of an enclosing parallel call?
	for i := len(stack) - 2; i >= 0; i-- {
		lit, ok := stack[i].(*ast.FuncLit)
		if !ok || i == 0 {
			continue
		}
		outer, ok := stack[i-1].(*ast.CallExpr)
		if !ok {
			continue
		}
		_, tasks, ok := parallelTasks(pass.Info, outer)
		if !ok {
			continue
		}
		for _, arg := range tasks {
			if unparen(arg) == lit {
				pass.ReportNodef(call, "parallel region nested inside a worker body finds the helper budget held by the outer region; hoist it or force workers=1 on the inner call")
				return
			}
		}
	}
}

// isWaitGroup reports whether t is sync.WaitGroup (directly or behind one
// pointer).
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// isLoopVarOutside reports whether v is the iteration variable of a for or
// range statement that encloses lit (so the capture outlives iterations).
func isLoopVarOutside(pass *Pass, v *types.Var, lit *ast.FuncLit) bool {
	decl := v.Pos()
	if !decl.IsValid() {
		return false
	}
	for _, f := range pass.Files {
		if f.Pos() > decl || decl > f.End() {
			continue
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.RangeStmt:
				if declaresAt(pass, n.Key, decl) || declaresAt(pass, n.Value, decl) {
					// The literal must be inside the loop body.
					found = n.Body.Pos() <= lit.Pos() && lit.End() <= n.Body.End()
					return false
				}
			case *ast.ForStmt:
				if init, ok := n.Init.(*ast.AssignStmt); ok {
					for _, lhs := range init.Lhs {
						if declaresAt(pass, lhs, decl) {
							found = n.Body.Pos() <= lit.Pos() && lit.End() <= n.Body.End()
							return false
						}
					}
				}
			}
			return true
		})
		return found
	}
	return false
}

// declaresAt reports whether e is an identifier defining an object at pos.
func declaresAt(pass *Pass, e ast.Expr, pos token.Pos) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Defs[id]
	return obj != nil && obj.Pos() == pos
}

// goVersionAtLeast parses a go directive value like "1.22" and compares.
func goVersionAtLeast(version string, major, minor int) bool {
	if version == "" {
		return true // unknown: assume current toolchain semantics
	}
	var ma, mi int
	n, err := fmt.Sscanf(version, "%d.%d", &ma, &mi)
	if err != nil || n < 2 {
		return true
	}
	return ma > major || (ma == major && mi >= minor)
}
