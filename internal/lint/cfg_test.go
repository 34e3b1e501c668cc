package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// cfgFixtures covers the control constructs the builder handles: branches,
// loops with labelled break/continue, switch with fallthrough, select,
// range, goto back edges, panic termination, dead code and infinite loops.
var cfgFixtures = []struct {
	name, src string
}{
	{"straightline", `func f(a int) int {
		x := a + 1
		x *= 2
		return x
	}`},
	{"ifElse", `func f(a int) int {
		x := 0
		if a > 0 {
			x = 1
		} else {
			x = -1
		}
		return x
	}`},
	{"labelledLoops", `func f(xs [][]int) int {
		total := 0
	outer:
		for i := 0; i < len(xs); i++ {
			for j := 0; j < len(xs[i]); j++ {
				if xs[i][j] < 0 {
					break outer
				}
				if xs[i][j] == 0 {
					continue outer
				}
				total += xs[i][j]
			}
		}
		return total
	}`},
	{"switchFallthrough", `func f(a int) int {
		x := 0
		switch a {
		case 0:
			x = 1
			fallthrough
		case 1:
			x += 2
		default:
			x = 9
		}
		return x
	}`},
	{"selectStmt", `func f(a, b chan int) int {
		select {
		case v := <-a:
			return v
		case b <- 1:
		}
		return 0
	}`},
	{"rangeLoop", `func f(xs []int) int {
		total := 0
		for _, v := range xs {
			if v < 0 {
				break
			}
			total += v
		}
		return total
	}`},
	{"gotoLoop", `func f(n int) int {
		i := 0
	loop:
		if i < n {
			i++
			goto loop
		}
		return i
	}`},
	{"panicGuard", `func f(n int) int {
		if n < 0 {
			panic("negative")
		}
		return n
	}`},
	{"deadCode", `func f() int {
		return 1
		x := 2
		return x
	}`},
	{"infiniteLoop", `func f() {
		x := 0
		for {
			x++
		}
	}`},
	{"typeSwitch", `func f(v any) int {
		switch x := v.(type) {
		case int:
			return x
		case string:
			return len(x)
		}
		return 0
	}`},
}

// parseFuncBody parses a single function declaration and returns its body.
func parseFuncBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "fixture.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd.Body
		}
	}
	t.Fatal("fixture has no function body")
	return nil
}

// leafStmts lists the executable leaf statements of a body — the ones the
// CFG contract says must appear in exactly one block's node list. Compound
// statements contribute their pieces instead and function literals are
// opaque.
func leafStmts(body *ast.BlockStmt) []ast.Stmt {
	var out []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.IncDecStmt,
			*ast.DeclStmt, *ast.GoStmt, *ast.DeferStmt, *ast.SendStmt:
			out = append(out, n.(ast.Stmt))
		}
		return true
	})
	return out
}

// TestCFGStatementCoverage asserts the core block-granularity contract:
// every executable leaf statement lands in exactly one block, dead code
// included (revived blocks keep unreachable statements addressable).
func TestCFGStatementCoverage(t *testing.T) {
	for _, tc := range cfgFixtures {
		t.Run(tc.name, func(t *testing.T) {
			body := parseFuncBody(t, tc.src)
			cfg := BuildCFG(body)
			count := make(map[ast.Node]int)
			for _, b := range cfg.Blocks {
				for _, n := range b.Nodes {
					if _, ok := n.(ast.Stmt); ok {
						count[n]++
					}
				}
			}
			for _, s := range leafStmts(body) {
				if count[s] != 1 {
					t.Errorf("statement at offset %d (%T) appears in %d blocks, want 1", s.Pos(), s, count[s])
				}
			}
		})
	}
}

// TestCFGReachability spot-checks reachability: live statements sit in
// blocks reachable from Entry, statements after an unconditional return do
// not.
func TestCFGReachability(t *testing.T) {
	var deadSrc string
	for _, tc := range cfgFixtures {
		if tc.name == "deadCode" {
			deadSrc = tc.src
		}
	}
	body := parseFuncBody(t, deadSrc)
	cfg := BuildCFG(body)
	reach := cfg.Reachable()
	blockOf := func(s ast.Stmt) *CFGBlock {
		for _, b := range cfg.Blocks {
			for _, n := range b.Nodes {
				if n == s {
					return b
				}
			}
		}
		t.Fatalf("statement %T not placed in any block", s)
		return nil
	}
	stmts := body.List
	if !reach[blockOf(stmts[0]).Index] {
		t.Error("the first return should be reachable")
	}
	for _, s := range stmts[1:] {
		if reach[blockOf(s).Index] {
			t.Errorf("statement after return (%T) should be unreachable", s)
		}
	}
}

// bruteDominance computes dominance by node deletion: a dominates b iff
// a == b or removing a disconnects b from Entry. This reproduces the
// solver's vacuous convention for free — a block Entry cannot reach at
// all is never reached with or without the deletion, so it comes out
// dominated by everything.
func bruteDominance(c *CFG) [][]bool {
	n := len(c.Blocks)
	dom := make([][]bool, n)
	for b := range dom {
		dom[b] = make([]bool, n)
	}
	for a := 0; a < n; a++ {
		reached := make([]bool, n)
		var walk func(*CFGBlock)
		walk = func(b *CFGBlock) {
			if b.Index == a || reached[b.Index] {
				return
			}
			reached[b.Index] = true
			for _, s := range b.Succs {
				walk(s)
			}
		}
		if c.Entry.Index != a {
			walk(c.Entry)
		}
		for b := 0; b < n; b++ {
			dom[b][a] = a == b || !reached[b]
		}
	}
	return dom
}

// TestDominanceAgainstBruteForce cross-checks the iterative dominator
// solver against node-deletion reachability on every fixture.
func TestDominanceAgainstBruteForce(t *testing.T) {
	for _, tc := range cfgFixtures {
		t.Run(tc.name, func(t *testing.T) {
			cfg := BuildCFG(parseFuncBody(t, tc.src))
			got, want := cfg.Dominators(), bruteDominance(cfg)
			for b := range got {
				for a := range got[b] {
					if got[b][a] != want[b][a] {
						t.Errorf("block %d by block %d: solver %v, brute force %v", b, a, got[b][a], want[b][a])
					}
				}
			}
		})
	}
}

// TestCFGExitWiring asserts every return and panic block feeds Exit, and
// that Exit has no successors.
func TestCFGExitWiring(t *testing.T) {
	for _, tc := range cfgFixtures {
		t.Run(tc.name, func(t *testing.T) {
			cfg := BuildCFG(parseFuncBody(t, tc.src))
			if len(cfg.Exit.Succs) != 0 {
				t.Errorf("exit block has %d successors, want 0", len(cfg.Exit.Succs))
			}
			for _, b := range cfg.Blocks {
				if b.Return == nil && !b.Panics {
					continue
				}
				wired := false
				for _, s := range b.Succs {
					if s == cfg.Exit {
						wired = true
					}
				}
				if !wired {
					t.Errorf("block %d ends in return/panic but is not wired to Exit", b.Index)
				}
			}
		})
	}
}
