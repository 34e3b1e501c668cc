package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"testing"
)

// This file holds the gen/kill reaching-definitions solution, a test-only
// oracle: TestSSAAgainstReachingDefs checks SSA use resolution against it.

// A Def is one definition site of a variable: an assignment, a short
// variable declaration, a var declaration, or a range key/value binding.
type Def struct {
	// Obj is the defined variable.
	Obj types.Object
	// Node is the statement (or range statement) performing the definition.
	Node ast.Node
	// Block is the index of the block containing the definition.
	Block int
}

// ReachingDefs holds the classic gen/kill reaching-definitions solution:
// which definition sites may still be live at each block boundary.
type ReachingDefs struct {
	// Defs lists every definition site in the function, in block order.
	Defs []Def
	// In[b] and Out[b] are the sets of indices into Defs that reach the
	// entry and exit of block b; nil for blocks unreachable from Entry.
	In, Out []map[int]bool
}

// reachingDefs solves reaching definitions for the CFG by round-robin
// iteration to a fixed point. info resolves identifiers to objects; only
// variables declared inside the function (including those bound by range
// statements) get definition sites — package-level state is out of scope.
func reachingDefs(c *CFG, info *types.Info) *ReachingDefs {
	rd := &ReachingDefs{
		In:  make([]map[int]bool, len(c.Blocks)),
		Out: make([]map[int]bool, len(c.Blocks)),
	}
	defsByObj := make(map[types.Object][]int)
	gen := make([]map[int]bool, len(c.Blocks))
	addDef := func(b *CFGBlock, obj types.Object, node ast.Node) {
		if obj == nil {
			return
		}
		idx := len(rd.Defs)
		rd.Defs = append(rd.Defs, Def{Obj: obj, Node: node, Block: b.Index})
		defsByObj[obj] = append(defsByObj[obj], idx)
		if gen[b.Index] == nil {
			gen[b.Index] = make(map[int]bool)
		}
		// A later definition of the same object in this block kills the
		// earlier one: drop it from gen before adding the new site.
		for _, prior := range defsByObj[obj] {
			delete(gen[b.Index], prior)
		}
		gen[b.Index][idx] = true
	}
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			collectDefs(n, info, func(obj types.Object, node ast.Node) { addDef(b, obj, node) })
		}
		if b.Range != nil {
			for _, e := range []ast.Expr{b.Range.Key, b.Range.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					addDef(b, defOrUse(info, id), b.Range)
				}
			}
		}
	}
	// transfer kills every other definition of an object the block
	// defines and adds the block's own definitions.
	transfer := func(b *CFGBlock, in map[int]bool) map[int]bool {
		killed := make(map[types.Object]bool)
		for idx := range gen[b.Index] {
			killed[rd.Defs[idx].Obj] = true
		}
		out := make(map[int]bool, len(in)+len(gen[b.Index]))
		for idx := range in {
			if !killed[rd.Defs[idx].Obj] {
				out[idx] = true
			}
		}
		for idx := range gen[b.Index] {
			out[idx] = true
		}
		return out
	}
	reach := c.Reachable()
	rd.In[c.Entry.Index] = map[int]bool{}
	rd.Out[c.Entry.Index] = transfer(c.Entry, rd.In[c.Entry.Index])
	for changed := true; changed; {
		changed = false
		for _, b := range c.Blocks {
			if !reach[b.Index] || b == c.Entry {
				continue
			}
			var in map[int]bool // union over the solved predecessors
			for _, pred := range b.Preds {
				if rd.Out[pred.Index] == nil {
					continue
				}
				if in == nil {
					in = make(map[int]bool)
				}
				for idx := range rd.Out[pred.Index] {
					in[idx] = true
				}
			}
			if in == nil || (rd.In[b.Index] != nil && maps.Equal(in, rd.In[b.Index])) {
				continue
			}
			rd.In[b.Index] = in
			rd.Out[b.Index] = transfer(b, in)
			changed = true
		}
	}
	return rd
}

// typeCheckFunc parses and type-checks a single-function source and returns
// the function body with its type info.
func typeCheckFunc(t *testing.T, src string) (*ast.BlockStmt, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd.Body, info
		}
	}
	t.Fatal("fixture has no function body")
	return nil, nil
}

// defsOf lists the indices of defs of the named variable.
func defsOf(rd *ReachingDefs, name string) []int {
	var out []int
	for i, d := range rd.Defs {
		if d.Obj != nil && d.Obj.Name() == name {
			out = append(out, i)
		}
	}
	return out
}

// blockContaining finds the block holding the given statement.
func blockContaining(t *testing.T, cfg *CFG, match func(ast.Node) bool) *CFGBlock {
	t.Helper()
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			if match(n) {
				return b
			}
		}
	}
	t.Fatal("no block contains the requested statement")
	return nil
}

// TestReachingDefsJoin asserts both branch definitions of x survive to the
// join point, and that the then-branch redefinition kills the initial one
// on its own path.
func TestReachingDefsJoin(t *testing.T) {
	body, info := typeCheckFunc(t, `func f(a int) int {
		x := 1
		if a > 0 {
			x = 2
		}
		y := x
		return y
	}`)
	cfg := BuildCFG(body)
	rd := reachingDefs(cfg, info)

	xDefs := defsOf(rd, "x")
	if len(xDefs) != 2 {
		t.Fatalf("got %d defs of x, want 2", len(xDefs))
	}
	join := blockContaining(t, cfg, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		return ok && id.Name == "y"
	})
	for _, d := range xDefs {
		if !rd.In[join.Index][d] {
			t.Errorf("def %d of x does not reach the join block; In = %v", d, rd.In[join.Index])
		}
	}
	// On the exit of the redefining block, only the second def survives.
	redef := rd.Defs[xDefs[1]]
	out := rd.Out[redef.Block]
	if !out[xDefs[1]] || out[xDefs[0]] {
		t.Errorf("redefining block should kill def %d and generate def %d; Out = %v", xDefs[0], xDefs[1], out)
	}
}

// TestReachingDefsLoop asserts the loop-carried definition flows around the
// back edge: at the return, both the initial and in-loop defs of s reach.
func TestReachingDefsLoop(t *testing.T) {
	body, info := typeCheckFunc(t, `func g(n int) int {
		s := 0
		for i := 0; i < n; i++ {
			s = s + i
		}
		return s
	}`)
	cfg := BuildCFG(body)
	rd := reachingDefs(cfg, info)

	sDefs := defsOf(rd, "s")
	if len(sDefs) != 2 {
		t.Fatalf("got %d defs of s, want 2", len(sDefs))
	}
	ret := blockContaining(t, cfg, func(n ast.Node) bool {
		_, ok := n.(*ast.ReturnStmt)
		return ok
	})
	for _, d := range sDefs {
		if !rd.In[ret.Index][d] {
			t.Errorf("def %d of s does not reach the return; In = %v", d, rd.In[ret.Index])
		}
	}
	// The loop-body definition must also reach its own block entry via the
	// back edge join at the loop head.
	loopDef := rd.Defs[sDefs[1]]
	if !rd.In[loopDef.Block][sDefs[1]] {
		t.Errorf("loop-carried def %d does not flow around the back edge; In = %v", sDefs[1], rd.In[loopDef.Block])
	}
}

// TestRangeBindingDefs asserts range key/value bindings get definition
// sites attributed to the loop-head block.
func TestRangeBindingDefs(t *testing.T) {
	body, info := typeCheckFunc(t, `func h(xs []int) int {
		total := 0
		for _, v := range xs {
			total += v
		}
		return total
	}`)
	cfg := BuildCFG(body)
	rd := reachingDefs(cfg, info)
	vDefs := defsOf(rd, "v")
	if len(vDefs) != 1 {
		t.Fatalf("got %d defs of v, want 1", len(vDefs))
	}
	if _, ok := rd.Defs[vDefs[0]].Node.(*ast.RangeStmt); !ok {
		t.Errorf("def of v attributed to %T, want *ast.RangeStmt", rd.Defs[vDefs[0]].Node)
	}
}

// fakeOrigin builds distinct types.Object values for taint-lattice tests.
func fakeOrigin(name string) types.Object {
	return types.NewVar(token.NoPos, nil, name, types.Typ[types.Float64])
}

// TestTaintLattice exercises the join and clone operations the epsbudget
// accumulation relies on: join is pointwise max, clone isolates.
func TestTaintLattice(t *testing.T) {
	v, o1, o2 := fakeOrigin("v"), fakeOrigin("eps"), fakeOrigin("delta")
	a := Taint{v: {o1: 0.5}}
	b := Taint{v: {o1: 0.25, o2: 1}}

	j := joinTaint(a, b)
	if j[v][o1] != 0.5 || j[v][o2] != 1 {
		t.Errorf("join = %v, want max(0.5,0.25) for eps and 1 for delta", j[v])
	}
	if a[v][o2] != 0 || b[v][o1] != 0.25 {
		t.Error("join mutated its inputs")
	}

	c := a.clone()
	c[v][o1] = 0.75
	if a[v][o1] != 0.5 {
		t.Error("clone shares origin maps with the original")
	}
}
