package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves the called function or method of call, or nil for
// conversions, builtins and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isPkgFunc reports whether call invokes pkgPath.name.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// asPkgCall returns e as a call to pkgPath.name, or nil.
func asPkgCall(info *types.Info, e ast.Expr, pkgPath, name string) *ast.CallExpr {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || !isPkgFunc(info, call, pkgPath, name) {
		return nil
	}
	return call
}

// isBuiltin reports whether call invokes the predeclared builtin name.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// isFloat reports whether t is a floating-point type (incl. untyped float).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exactIntValue returns the exact integer value of a constant expression,
// if the expression is constant and integral.
func exactIntValue(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(v)
}

// isZeroConst reports whether e is a constant with numeric value exactly 0.
func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// isInternalPath reports whether an import path names a package under an
// internal/ tree (the module's own numerical libraries).
func isInternalPath(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}
