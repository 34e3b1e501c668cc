package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Ledgercharge enforces the error-budget ledger discipline: every call to
// a truncating procedure (declared by //numerics:truncates or the builtin
// registry) must be followed — on every path that completes normally — by
// a bounded Charge on an obs Recorder. Paths that propagate an error or
// panic are exempt (the computation's result is discarded), and a function
// that is itself annotated has passed the charge duty to its callers. The
// usual `if o.Obs != nil { o.Obs.Charge(...) }` guard counts as charging
// on both arms when every normal path from its true arm charges: a nil
// Recorder means observability is off, not that mass went missing.
//
// The analyzer also validates //numerics:truncates labels against the
// canonical ledger vocabulary in internal/obs, so an annotation typo is a
// lint error rather than a silently fragmented report.
var Ledgercharge = &Analyzer{
	Name: "ledgercharge",
	Doc:  "flags truncating calls whose dropped mass is never charged to the error-budget ledger",
	// Version 2: a recorder guard charges only when every normal path
	// from its true arm does.
	Version: 2,
	Run:     runLedgercharge,
}

func runLedgercharge(pass *Pass) error {
	s := pass.Summaries()

	// Annotation-label validation for this package's declarations
	// (functions and interface methods alike).
	reportBad := func(doc *ast.CommentGroup) {
		_, bad, _ := parseTruncates(doc)
		for _, b := range bad {
			if b.Term == "" {
				pass.Reportf(b.Pos, "//numerics:truncates without a component/term label")
				continue
			}
			pass.Reportf(b.Pos, "//numerics:truncates label %q: %s", b.Term, b.Reason)
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				reportBad(d.Doc)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range it.Methods.List {
						reportBad(m.Doc)
					}
				}
			}
		}
	}

	pass.Preorder(Mask((*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)), func(n ast.Node) {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if _, _, annotated := parseTruncates(fn.Doc); annotated {
				// The annotation moves the charge duty to the callers.
				return
			}
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body == nil {
			return
		}
		for _, v := range unchargedSites(pass.pkg, body, s) {
			pass.ReportNodef(v.site, "truncating call (%s) is not charged to the ledger on the path leaving at line %d; add an obs Charge after it or annotate the enclosing function with %s",
				strings.Join(v.terms, ", "), pass.Fset.Position(v.leavePos).Line, truncatesPrefix)
		}
	})
	return nil
}

// chargeViolation is one truncating call with an uncharged normal path.
type chargeViolation struct {
	site     *ast.CallExpr
	terms    []string
	leavePos token.Pos
}

// unchargedSites finds truncating calls in body that some normal
// completion path exits without a ledger charge.
func unchargedSites(pkg *Package, body *ast.BlockStmt, s *Summaries) []chargeViolation {
	info := pkg.Info
	cfg := pkg.CFG(body)

	// Charging markers: nodes holding a bounded Charge call, plus the
	// condition nodes of `if recorder != nil { ... Charge ... }` guards
	// whose true arm charges on every normal path — passing such a guard
	// means the charge regime was honoured whichever arm ran.
	charging := make([]map[int]bool, len(cfg.Blocks)) // block -> node indices at/after which the path is charged
	mark := func(charges func(ast.Node) bool) {
		for bi, b := range cfg.Blocks {
			for ni, node := range b.Nodes {
				if charges(node) {
					if charging[bi] == nil {
						charging[bi] = make(map[int]bool)
					}
					charging[bi][ni] = true
				}
			}
		}
	}
	mark(func(node ast.Node) bool { return nodeCharges(info, node) })
	guarded := guardedCharges(info, body, cfg, charging)
	mark(func(node ast.Node) bool { return guarded[nodeExpr(node)] })

	var out []chargeViolation
	for bi, b := range cfg.Blocks {
		for ni, node := range b.Nodes {
			walkCalls(node, func(call *ast.CallExpr) {
				sum := s.ForCall(info, call)
				if len(sum.Truncates) == 0 {
					return
				}
				w := &chargeWalker{info: info, cfg: cfg, charging: charging, visited: make(map[[2]int]bool)}
				// The site's own node may also hold the charge (charged
				// result expression); start checking at the same index.
				if pos, ok := w.walk(bi, ni, true); !ok {
					out = append(out, chargeViolation{site: call, terms: sum.Truncates, leavePos: pos})
				}
			})
		}
	}
	return out
}

type chargeWalker struct {
	info     *types.Info
	cfg      *CFG
	charging []map[int]bool
	visited  map[[2]int]bool
}

// walk reports whether every path from block bi (starting at node index
// start) to a normal exit passes a charging marker; on failure it returns
// the position where the first uncharged path leaves the function.
func (w *chargeWalker) walk(bi, start int, first bool) (token.Pos, bool) {
	if !first {
		if w.visited[[2]int{bi, start}] {
			return token.NoPos, true
		}
		w.visited[[2]int{bi, start}] = true
	}
	b := w.cfg.Blocks[bi]
	for i := start; i < len(b.Nodes); i++ {
		if w.charging[bi] != nil && w.charging[bi][i] {
			return token.NoPos, true
		}
		if ret, ok := b.Nodes[i].(*ast.ReturnStmt); ok {
			if isErrorReturn(w.info, ret) {
				return token.NoPos, true
			}
			return ret.Pos(), false
		}
	}
	if b.Panics {
		return token.NoPos, true
	}
	if b == w.cfg.Exit || len(b.Succs) == 0 {
		// Normal completion (fell off the end) without a charge.
		if b == w.cfg.Exit {
			return body_end(w.cfg), false
		}
		return token.NoPos, true // dead block (e.g. select{} forever)
	}
	for _, s := range b.Succs {
		if pos, ok := w.walk(s.Index, 0, false); !ok {
			return pos, false
		}
	}
	return token.NoPos, true
}

// isErrorReturn reports whether a return statement propagates a failure:
// some result in an error position is definitely non-nil (a non-nil
// identifier or a call), or the return is too opaque to judge (naked, or
// forwarding a multi-value call) — opaque returns are exempt rather than
// flagged, keeping the analyzer's false-positive rate at zero.
func isErrorReturn(info *types.Info, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return true // naked return: cannot see the named error's value
	}
	for _, r := range ret.Results {
		e := unparen(r)
		t := info.TypeOf(e)
		if t == nil || !isErrorType(t) {
			// A forwarded call's tuple hides the error value.
			if call, ok := e.(*ast.CallExpr); ok && len(ret.Results) == 1 {
				if tup, ok := info.TypeOf(call).(*types.Tuple); ok {
					for i := 0; i < tup.Len(); i++ {
						if isErrorType(tup.At(i).Type()) {
							return true
						}
					}
				}
			}
			continue
		}
		if id, ok := e.(*ast.Ident); ok {
			if id.Name != "nil" {
				return true // returning an error variable: failure path
			}
			continue
		}
		// fmt.Errorf(...), wrapped errors, etc.
		return true
	}
	return false
}

// nodeCharges reports whether the node contains a bounded ledger charge:
// a call to the Charge method of an obs Recorder (ChargeIndicative is
// advisory and does not discharge the obligation).
func nodeCharges(info *types.Info, node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isChargeCall(info, call) {
			found = true
		}
		return !found
	})
	return found
}

// isChargeCall matches r.Charge(...) for a Recorder-like receiver.
func isChargeCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Charge" {
		return false
	}
	return isRecorderType(info.TypeOf(sel.X))
}

// isRecorderType reports whether t (through pointers) is a named type or
// interface that looks like an error-budget recorder ("Recorder" in its
// name, or a Charge method).
func isRecorderType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if strings.Contains(named.Obj().Name(), "Recorder") {
			return true
		}
	}
	for _, t := range []types.Type{t, t.Underlying()} {
		if iface, ok := t.(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				if iface.Method(i).Name() == "Charge" {
					return true
				}
			}
		}
	}
	return false
}

// guardedCharges finds the `if rec != nil { ... }` guards of body whose
// true arm passes a charging marker on every normal path, keyed by their
// condition expression (the node the CFG keeps in the branching block). A
// Charge behind a further condition inside the guard does not count.
func guardedCharges(info *types.Info, body *ast.BlockStmt, cfg *CFG, charging []map[int]bool) map[ast.Expr]bool {
	guards := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		bin, ok := unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || bin.Op != token.NEQ {
			return true
		}
		var rec ast.Expr
		switch {
		case isNilIdent(bin.Y):
			rec = bin.X
		case isNilIdent(bin.X):
			rec = bin.Y
		default:
			return true
		}
		if isRecorderType(info.TypeOf(rec)) {
			guards[ifs.Cond] = true
		}
		return true
	})
	out := make(map[ast.Expr]bool)
	for _, b := range cfg.Blocks {
		if !guards[b.Cond] || b.TrueSucc == nil {
			continue
		}
		w := &chargeWalker{info: info, cfg: cfg, charging: charging, visited: make(map[[2]int]bool)}
		if _, ok := w.walk(b.TrueSucc.Index, 0, true); ok {
			out[b.Cond] = true
		}
	}
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// nodeExpr returns node as an expression (CFG blocks store condition
// expressions directly), or nil.
func nodeExpr(node ast.Node) ast.Expr {
	e, _ := node.(ast.Expr)
	return e
}
