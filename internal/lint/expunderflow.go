package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Expunderflow flags exp/log arithmetic that underflows or loses precision
// in the probability computations this repository lives on:
//
//   - math.Exp(a)*math.Exp(b): each factor can underflow to 0 even when
//     the product exp(a+b) is representable — write math.Exp(a+b);
//   - math.Log(math.Exp(x)) and math.Exp(math.Log(x)): identity round
//     trips that waste precision (and the latter NaNs for x ≤ 0);
//   - hand-rolled log-space probability terms (math.Exp over an expression
//     built from math.Log/math.Lgamma calls or log-named values) outside
//     internal/numeric. Poisson pmf terms belong next to the Fox–Glynn
//     machinery: use numeric.PoissonPMF, numeric.PoissonPMFTable or
//     numeric.FoxGlynn. Binomial masses need no Exp at all: advance a
//     row with numeric.BinomialStep.
var Expunderflow = &Analyzer{
	Name:    "expunderflow",
	Doc:     "flags underflow-prone exp/log arithmetic and hand-rolled log-space pmf terms outside internal/numeric",
	Version: 2,
	Run:     runExpunderflow,
}

// numericPkgSuffix marks the one package allowed to hand-roll log-space
// terms: it is where the sanctioned helpers live.
const numericPkgSuffix = "internal/numeric"

func runExpunderflow(pass *Pass) error {
	inNumeric := strings.HasSuffix(pass.PkgPath, numericPkgSuffix)
	pass.Inspect(Mask((*ast.BinaryExpr)(nil), (*ast.CallExpr)(nil)), func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.MUL {
				return
			}
			// Only report at the head of a multiplication chain so a
			// product of three factors yields one diagnostic.
			if len(stack) >= 2 {
				if p, ok := stack[len(stack)-2].(*ast.BinaryExpr); ok && p.Op == token.MUL {
					return
				}
			}
			if countExpFactors(pass, n) >= 2 {
				pass.ReportRangef(n.OpPos, n.End(), "product of math.Exp calls underflows before it overflows; use math.Exp(a + b)")
			}
		case *ast.CallExpr:
			switch {
			case isPkgFunc(pass.Info, n, "math", "Log") && len(n.Args) == 1 && asPkgCall(pass.Info, n.Args[0], "math", "Exp") != nil:
				pass.ReportNodef(n, "math.Log(math.Exp(x)) is x with extra rounding; use x directly")
			case isPkgFunc(pass.Info, n, "math", "Exp") && len(n.Args) == 1 && asPkgCall(pass.Info, n.Args[0], "math", "Log") != nil:
				pass.ReportNodef(n, "math.Exp(math.Log(x)) is x with extra rounding (and NaN for x <= 0); use x directly")
			case !inNumeric && isPkgFunc(pass.Info, n, "math", "Exp") && len(n.Args) == 1:
				if mentionsLogSpace(pass, n.Args[0]) {
					pass.ReportNodef(n, "hand-rolled log-space probability term outside %s; use numeric.PoissonPMF, numeric.PoissonPMFTable, numeric.FoxGlynn or, for binomial masses, numeric.BinomialStep", numericPkgSuffix)
				}
			}
		}
	})
	return nil
}

// countExpFactors counts direct math.Exp factors in a * chain.
func countExpFactors(pass *Pass, e ast.Expr) int {
	e = unparen(e)
	if be, ok := e.(*ast.BinaryExpr); ok && be.Op == token.MUL {
		return countExpFactors(pass, be.X) + countExpFactors(pass, be.Y)
	}
	if asPkgCall(pass.Info, e, "math", "Exp") != nil {
		return 1
	}
	return 0
}

// mentionsLogSpace reports whether the expression subtree contains a
// math.Log/math.Log1p/math.Lgamma call or a value whose name marks it as a
// log-domain quantity (log*, lf, lg — the conventional names for
// log-factorial tables and cached logarithms).
func mentionsLogSpace(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPkgFunc(pass.Info, n, "math", "Log") ||
				isPkgFunc(pass.Info, n, "math", "Log1p") ||
				isPkgFunc(pass.Info, n, "math", "Lgamma") {
				found = true
				return false
			}
		case *ast.Ident:
			if isLogName(n.Name) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isLogName(name string) bool {
	if name == "lf" || name == "lg" {
		return true
	}
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "log") && lower != "log" // `log` alone is usually a logger
}
