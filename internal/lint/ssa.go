package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file grows the CFG layer into pruned SSA form. The numeric-domain
// analyzers (domainflow, probrange) need per-use value identity — "which
// assignment produced the value this expression reads" — which a
// block-granular reaching-definitions solution cannot give them: a block
// with two writes to s exposes only the last one, and a use between them
// sees neither. SSA versions every definition, places φ-functions at
// dominance frontiers and resolves every identifier use to exactly one
// SSAValue, so an analyzer can evaluate a fact per value with plain
// memoised recursion instead of a fixed-point sweep.
//
// The construction is the textbook pruned form:
//
//  1. immediate dominators are extracted from the existing iterative
//     Dominators() sets (the unique strict dominator dominated by all
//     other strict dominators);
//  2. dominance frontiers come from the Cytron et al. walk over the
//     dominator tree (for each join block, walk each predecessor's idom
//     chain up to the block's own idom);
//  3. φ-functions are placed with the usual worklist over the iterated
//     frontier of each variable's definition blocks, pruned by a
//     per-block liveness solve so dead φs (variables not live into the
//     join) are never materialised;
//  4. renaming walks the dominator tree with one version stack per
//     variable.
//
// Function literals stay opaque, exactly as in the CFG layer: a FuncLit
// body is a separate function with its own CFG and its own SSA; uses of
// captured variables inside it are not versioned (a
// capture observes whatever version is current when the closure runs,
// which no intraprocedural numbering can name).

// SSAValue is one definition of one variable: a parameter's entry value
// (Version 0), an explicit definition site, or a φ-function merging
// versions at a join block.
type SSAValue struct {
	// Var is the source-level variable this value versions.
	Var *types.Var
	// Version numbers the definitions of Var in renaming order; the entry
	// value of a parameter (or the implicit zero value of a local read
	// before any write on some path) is Version 0.
	Version int
	// Def is the node performing the definition (an *ast.AssignStmt,
	// *ast.DeclStmt, *ast.IncDecStmt or *ast.RangeStmt), nil for entry
	// values and φs.
	Def ast.Node
	// Rhs is the expression assigned into this value when the definition
	// syntactically pairs one (x := e, x = e, x op= e — for compound
	// assignments the value is x_old op Rhs, discriminated by the Def
	// statement's token); nil for tuple assignments from calls, range
	// bindings, zero-value declarations, entry values and φs.
	Rhs ast.Expr
	// Phi is non-nil when this value merges versions at a join block.
	Phi *SSAPhi
	// Block is the index of the defining block (the entry block for
	// parameters).
	Block int
}

// SSAPhi is a φ-function: the value of its variable at a join block,
// selecting one argument per incoming edge.
type SSAPhi struct {
	Val *SSAValue
	// Args[i] is the value flowing in along the edge from Preds[i] of the
	// block; nil when that predecessor is unreachable (never executed, so
	// the edge cannot actually deliver a value).
	Args []*SSAValue
}

// SSA is the pruned SSA form of one function body.
type SSA struct {
	CFG *CFG
	// Vars lists the tracked variables (parameters first, then locals in
	// first-definition order). Package-level state is not tracked.
	Vars []*types.Var
	// Entry maps each tracked variable to its Version-0 value.
	Entry map[*types.Var]*SSAValue
	// Phis[b] lists the φ-functions placed at block b, ordered by variable
	// position in Vars.
	Phis [][]*SSAPhi
	// UseVal resolves an identifier use of a tracked variable to the SSA
	// value it reads. Identifiers inside function literals, identifiers of
	// untracked variables, and uses in blocks unreachable from the entry
	// are absent.
	UseVal map[*ast.Ident]*SSAValue
	// Defs lists the values created by each defining node, in LHS order.
	Defs map[ast.Node][]*SSAValue
	// IDom[b] is the immediate dominator of block b (-1 for the entry
	// block and for blocks unreachable from it).
	IDom []int
	// Frontier[b] lists the dominance frontier of block b, sorted.
	Frontier [][]int

	nextVersion map[*types.Var]int
}

// BuildSSA constructs pruned SSA for a function body whose CFG is cfg.
// params lists the function's parameters, receiver first (they hold
// Version-0 values at entry); info resolves identifiers.
func BuildSSA(cfg *CFG, info *types.Info, params []*types.Var) *SSA {
	s := &SSA{
		CFG:         cfg,
		Entry:       make(map[*types.Var]*SSAValue),
		Phis:        make([][]*SSAPhi, len(cfg.Blocks)),
		UseVal:      make(map[*ast.Ident]*SSAValue),
		Defs:        make(map[ast.Node][]*SSAValue),
		nextVersion: make(map[*types.Var]int),
	}
	s.IDom = immediateDominators(cfg)
	s.Frontier = dominanceFrontiers(cfg, s.IDom)

	// Tracked variables and their definition blocks.
	tracked := make(map[*types.Var]bool)
	defBlocks := make(map[*types.Var]map[int]bool)
	addVar := func(v *types.Var, block int) {
		if v == nil {
			return
		}
		if !tracked[v] {
			tracked[v] = true
			s.Vars = append(s.Vars, v)
			defBlocks[v] = make(map[int]bool)
		}
		if block >= 0 {
			defBlocks[v][block] = true
		}
	}
	for _, p := range params {
		addVar(p, -1)
	}
	reach := cfg.Reachable()
	for _, b := range cfg.Blocks {
		if !reach[b.Index] {
			continue
		}
		for _, n := range b.Nodes {
			collectDefs(n, info, func(obj types.Object, _ ast.Node) {
				if v, ok := obj.(*types.Var); ok {
					addVar(v, b.Index)
				}
			})
		}
		if b.Range != nil {
			for _, e := range []ast.Expr{b.Range.Key, b.Range.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if v, ok := defOrUse(info, id).(*types.Var); ok {
						addVar(v, b.Index)
					}
				}
			}
		}
	}

	live := blockLiveIn(cfg, info, tracked, reach)

	// φ placement: iterated dominance frontier of each variable's
	// definition blocks, pruned to blocks where the variable is live-in.
	varPos := make(map[*types.Var]int, len(s.Vars))
	for i, v := range s.Vars {
		varPos[v] = i
	}
	phiAt := make([]map[*types.Var]*SSAPhi, len(cfg.Blocks))
	for _, v := range s.Vars {
		work := make([]int, 0, len(defBlocks[v]))
		inWork := make(map[int]bool)
		for b := range defBlocks[v] {
			work = append(work, b)
			inWork[b] = true
		}
		// The entry block is a definition site for parameters.
		if _, isParam := s.entryDefines(v, params); isParam && !inWork[cfg.Entry.Index] {
			work = append(work, cfg.Entry.Index)
			inWork[cfg.Entry.Index] = true
		}
		sort.Ints(work) // deterministic placement order
		placed := make(map[int]bool)
		for len(work) > 0 {
			b := work[0]
			work = work[1:]
			for _, f := range s.Frontier[b] {
				if placed[f] || !reach[f] || !live[f][v] {
					continue
				}
				placed[f] = true
				if phiAt[f] == nil {
					phiAt[f] = make(map[*types.Var]*SSAPhi)
				}
				phi := &SSAPhi{Args: make([]*SSAValue, len(cfg.Blocks[f].Preds))}
				phi.Val = s.newValue(v, nil, nil, f)
				phi.Val.Phi = phi
				phiAt[f][v] = phi
				if !inWork[f] {
					work = append(work, f)
					inWork[f] = true
				}
			}
		}
	}
	for bi, m := range phiAt {
		if m == nil {
			continue
		}
		phis := make([]*SSAPhi, 0, len(m))
		for v := range m {
			phis = append(phis, m[v])
		}
		sort.Slice(phis, func(i, j int) bool { return varPos[phis[i].Val.Var] < varPos[phis[j].Val.Var] })
		s.Phis[bi] = phis
	}

	// Renaming over the dominator tree.
	children := make([][]int, len(cfg.Blocks))
	for b, d := range s.IDom {
		if d >= 0 {
			children[d] = append(children[d], b)
		}
	}
	stacks := make(map[*types.Var][]*SSAValue)
	for _, p := range params {
		v := s.newValue(p, nil, nil, cfg.Entry.Index)
		s.Entry[p] = v
		stacks[p] = append(stacks[p], v)
	}
	rn := &renamer{s: s, info: info, tracked: tracked, stacks: stacks}
	rn.block(cfg.Entry.Index, children)
	return s
}

// entryDefines reports whether v is one of the parameters (which hold a
// definition at the entry block).
func (s *SSA) entryDefines(v *types.Var, params []*types.Var) (int, bool) {
	for i, p := range params {
		if p == v {
			return i, true
		}
	}
	return 0, false
}

func (s *SSA) newValue(v *types.Var, def ast.Node, rhs ast.Expr, block int) *SSAValue {
	val := &SSAValue{Var: v, Version: s.nextVersion[v], Def: def, Rhs: rhs, Block: block}
	s.nextVersion[v]++
	return val
}

// ConcreteValues expands a value through φ-functions to the set of non-φ
// values it may hold, cycle-safe (a loop φ contributes its non-φ inputs).
func (v *SSAValue) ConcreteValues() []*SSAValue {
	seen := make(map[*SSAValue]bool)
	var out []*SSAValue
	var walk func(*SSAValue)
	walk = func(x *SSAValue) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		if x.Phi == nil {
			out = append(out, x)
			return
		}
		for _, a := range x.Phi.Args {
			walk(a)
		}
	}
	walk(v)
	return out
}

// renamer carries the version stacks of the dominator-tree walk.
type renamer struct {
	s       *SSA
	info    *types.Info
	tracked map[*types.Var]bool
	stacks  map[*types.Var][]*SSAValue
}

func (r *renamer) top(v *types.Var) *SSAValue {
	st := r.stacks[v]
	if len(st) == 0 {
		// A use on a path with no prior definition (a local read before
		// any write reaches it, possible in dead-ish code): materialise a
		// Version-0 zero value so every use resolves to something.
		val := r.s.newValue(v, nil, nil, r.s.CFG.Entry.Index)
		if val.Version == 0 {
			r.s.Entry[v] = val
		}
		r.stacks[v] = append(r.stacks[v], val)
		return val
	}
	return st[len(st)-1]
}

func (r *renamer) push(v *types.Var, val *SSAValue) {
	r.stacks[v] = append(r.stacks[v], val)
}

// uses resolves every identifier use of a tracked variable within expr,
// skipping function literals and the identifiers in skip (definition
// targets of the same node).
func (r *renamer) uses(n ast.Node, skip map[*ast.Ident]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok || skip[id] {
			return true
		}
		obj := r.info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || !r.tracked[v] {
			return true
		}
		r.s.UseVal[id] = r.top(v)
		return true
	})
}

// defTargets returns the plain-identifier definition targets of node, in
// LHS order, with the set form for the use walk to skip.
func defTargets(n ast.Node, info *types.Info) ([]*ast.Ident, map[*ast.Ident]bool) {
	var ids []*ast.Ident
	add := func(e ast.Expr) {
		if id, ok := unparen(e).(*ast.Ident); ok && id.Name != "_" {
			ids = append(ids, id)
		}
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			add(lhs)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						add(name)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		add(s.X)
	}
	set := make(map[*ast.Ident]bool, len(ids))
	// Compound assignments (x += e) and IncDec read the target too; only
	// skip the definition ident for := and = where the LHS is write-only.
	switch s := n.(type) {
	case *ast.AssignStmt:
		if s.Tok.String() == ":=" || s.Tok.String() == "=" {
			for _, id := range ids {
				set[id] = true
			}
		}
	case *ast.DeclStmt:
		for _, id := range ids {
			set[id] = true
		}
	}
	return ids, set
}

// pairedRhs returns the expression assigned to target index i of an
// assignment with matched sides, or nil (tuple call, zero-value decl).
func pairedRhs(n ast.Node, i int) ast.Expr {
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) && i < len(s.Rhs) {
			return s.Rhs[i]
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			idx := 0
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for j := range vs.Names {
					if idx == i {
						if len(vs.Values) == len(vs.Names) {
							return vs.Values[j]
						}
						return nil
					}
					idx++
				}
			}
		}
	}
	return nil
}

// block renames one dominator-tree node: φ defs, node-by-node uses and
// defs, φ-argument fill-in for successors, then children, then unwind.
func (r *renamer) block(bi int, children [][]int) {
	var pushed []*types.Var
	for _, phi := range r.s.Phis[bi] {
		r.push(phi.Val.Var, phi.Val)
		pushed = append(pushed, phi.Val.Var)
	}
	b := r.s.CFG.Blocks[bi]
	for _, n := range b.Nodes {
		targets, skip := defTargets(n, r.info)
		r.uses(n, skip)
		for i, id := range targets {
			obj := defOrUse(r.info, id)
			v, ok := obj.(*types.Var)
			if !ok || !r.tracked[v] {
				continue
			}
			val := r.s.newValue(v, n, pairedRhs(n, i), bi)
			r.s.Defs[n] = append(r.s.Defs[n], val)
			if skip[id] {
				// Write-only target (= or :=): the ident resolves to the new
				// value. Compound targets (x += e, x++) already resolved to
				// the value they read; the new one is reachable via Defs.
				r.s.UseVal[id] = val
			}
			r.push(v, val)
			pushed = append(pushed, v)
		}
	}
	if b.Range != nil {
		for _, e := range []ast.Expr{b.Range.Key, b.Range.Value} {
			id, ok := e.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			v, ok := defOrUse(r.info, id).(*types.Var)
			if !ok || !r.tracked[v] {
				continue
			}
			val := r.s.newValue(v, b.Range, nil, bi)
			r.s.Defs[b.Range] = append(r.s.Defs[b.Range], val)
			r.s.UseVal[id] = val
			r.push(v, val)
			pushed = append(pushed, v)
		}
	}
	for _, succ := range b.Succs {
		for _, phi := range r.s.Phis[succ.Index] {
			for i, p := range succ.Preds {
				if p.Index == bi && phi.Args[i] == nil {
					phi.Args[i] = r.top(phi.Val.Var)
				}
			}
		}
	}
	for _, c := range children[bi] {
		r.block(c, children)
	}
	for _, v := range pushed {
		r.stacks[v] = r.stacks[v][:len(r.stacks[v])-1]
	}
}

// immediateDominators extracts idom from the full dominator sets: the
// immediate dominator of b is its unique strict dominator that every other
// strict dominator dominates.
func immediateDominators(cfg *CFG) []int {
	dom := cfg.Dominators()
	reach := cfg.Reachable()
	idom := make([]int, len(cfg.Blocks))
	for i := range idom {
		idom[i] = -1
	}
	for _, b := range cfg.Blocks {
		if !reach[b.Index] || b == cfg.Entry {
			continue
		}
		var strict []int
		for a := range dom[b.Index] {
			if dom[b.Index][a] && a != b.Index && reach[a] {
				strict = append(strict, a)
			}
		}
		for _, c := range strict {
			isIdom := true
			for _, d := range strict {
				if d != c && !dom[c][d] {
					isIdom = false
					break
				}
			}
			if isIdom {
				idom[b.Index] = c
				break
			}
		}
	}
	return idom
}

// dominanceFrontiers computes DF(b) for every block with the standard
// join-point walk: for each block with two or more predecessors, each
// predecessor's idom chain up to (exclusive) the block's own idom gains
// the block in its frontier.
func dominanceFrontiers(cfg *CFG, idom []int) [][]int {
	reach := cfg.Reachable()
	df := make([]map[int]bool, len(cfg.Blocks))
	for _, b := range cfg.Blocks {
		if !reach[b.Index] || len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if !reach[p.Index] {
				continue
			}
			runner := p.Index
			for runner != -1 && runner != idom[b.Index] {
				if df[runner] == nil {
					df[runner] = make(map[int]bool)
				}
				df[runner][b.Index] = true
				runner = idom[runner]
			}
		}
	}
	out := make([][]int, len(cfg.Blocks))
	for i, m := range df {
		for b := range m {
			out[i] = append(out[i], b)
		}
		sort.Ints(out[i])
	}
	return out
}

// blockLiveIn solves per-block liveness (backward, union join) for the
// tracked variables: live[b][v] means some path from the entry of b reads
// v before writing it. φ pruning keeps only join blocks where the merged
// variable is actually live.
func blockLiveIn(cfg *CFG, info *types.Info, tracked map[*types.Var]bool, reach []bool) []map[*types.Var]bool {
	n := len(cfg.Blocks)
	use := make([]map[*types.Var]bool, n)
	def := make([]map[*types.Var]bool, n)
	for i := range use {
		use[i] = make(map[*types.Var]bool)
		def[i] = make(map[*types.Var]bool)
	}
	for _, b := range cfg.Blocks {
		record := func(n ast.Node) {
			targets, skip := defTargets(n, info)
			// Upward-exposed uses first, then defs.
			ast.Inspect(n, func(x ast.Node) bool {
				if _, ok := x.(*ast.FuncLit); ok {
					// A closure may run at any later point; treat captured
					// reads as uses so their variables stay live (and keep
					// their φs) conservatively.
					ast.Inspect(x, func(y ast.Node) bool {
						if id, ok := y.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok && tracked[v] && !def[b.Index][v] {
								use[b.Index][v] = true
							}
						}
						return true
					})
					return false
				}
				id, ok := x.(*ast.Ident)
				if !ok || skip[id] {
					return true
				}
				if v, ok := info.Uses[id].(*types.Var); ok && tracked[v] && !def[b.Index][v] {
					use[b.Index][v] = true
				}
				return true
			})
			for _, id := range targets {
				if v, ok := defOrUse(info, id).(*types.Var); ok && tracked[v] {
					def[b.Index][v] = true
				}
			}
		}
		for _, n := range b.Nodes {
			record(n)
		}
		if b.Range != nil {
			for _, e := range []ast.Expr{b.Range.Key, b.Range.Value} {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if v, ok := defOrUse(info, id).(*types.Var); ok && tracked[v] {
						def[b.Index][v] = true
					}
				}
			}
		}
	}
	in := make([]map[*types.Var]bool, n)
	for i := range in {
		in[i] = make(map[*types.Var]bool)
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			if !reach[i] {
				continue
			}
			b := cfg.Blocks[i]
			for _, s := range b.Succs {
				for v := range in[s.Index] {
					if !def[i][v] && !in[i][v] {
						in[i][v] = true
						changed = true
					}
				}
			}
			for v := range use[i] {
				if !in[i][v] {
					in[i][v] = true
					changed = true
				}
			}
		}
	}
	return in
}

// collectDefs reports the variables a block node defines (assignment LHS
// identifiers, short declarations, var/const specs). Function literals are
// opaque: their bodies are separate functions with their own CFGs.
func collectDefs(n ast.Node, info *types.Info, emit func(types.Object, ast.Node)) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				emit(defOrUse(info, id), s)
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if name.Name != "_" {
					emit(info.Defs[name], s)
				}
			}
		}
	case *ast.IncDecStmt:
		if id, ok := unparen(s.X).(*ast.Ident); ok {
			emit(defOrUse(info, id), s)
		}
	}
}

// defOrUse resolves an identifier on the left of := (a Def) or = (a Use).
func defOrUse(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
