// Package lint is a small static-analysis framework for this repository,
// built on the standard library's go/ast, go/parser and go/types packages
// only — no external analysis dependencies. It exists to enforce the
// numerical-hygiene rules that the model-checking procedures depend on
// (no naked float equality, no underflow-prone exp/log arithmetic outside
// internal/numeric, no silently dropped errors, no aliased internal
// buffers escaping from the matrix/model packages).
//
// The cmd/mrmlint driver runs every registered analyzer over the module.
// Individual findings can be suppressed with a comment of the form
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line immediately above it. The
// reason is mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is a single named check that inspects one type-checked package
// at a time and reports diagnostics through its Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, enable/disable flags
	// and //lint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-line description shown by `mrmlint -list`.
	Doc string
	// Version counts behavioural revisions of the analyzer (new checks,
	// changed heuristics). It feeds RegistryHash so CI baselines notice
	// when recorded suppressions or stored findings predate the current
	// analyzer semantics. The zero value is version 1.
	Version int
	// Run inspects the package held by the pass and reports findings.
	Run func(*Pass) error
}

// version normalises the zero value to 1.
func (a *Analyzer) version() int {
	if a.Version == 0 {
		return 1
	}
	return a.Version
}

// RegistryHash fingerprints the full analyzer registry: an FNV-1a hash
// over the sorted "name@vN" strings of All(). The mrmlint -json mode
// stamps every finding with it, so a CI baseline diffing stored findings
// can tell "the code changed" apart from "the analyzers changed".
func RegistryHash() string {
	names := make([]string, 0, 16)
	for _, a := range All() {
		names = append(names, fmt.Sprintf("%s@v%d", a.Name, a.version()))
	}
	sort.Strings(names)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, s := range names {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= '\n'
		h *= prime64
	}
	return fmt.Sprintf("%016x", h)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files, parsed with comments.
	Files []*ast.File
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info
	// PkgPath is the package's import path within the module.
	PkgPath string
	// GoVersion is the module's go directive (e.g. "1.22"); "" means
	// unknown, which version-gated checks treat as current.
	GoVersion string

	insp  *Inspector
	pkg   *Package
	diags *[]Diagnostic
}

// CFG returns the control-flow graph of a function body, cached per
// package so the dataflow analyzers share one graph per function.
func (p *Pass) CFG(body *ast.BlockStmt) *CFG { return p.pkg.CFG(body) }

// Summaries returns the package's interprocedural summary cache.
func (p *Pass) Summaries() *Summaries { return p.pkg.Summaries() }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportRangef(pos, pos, format, args...)
}

// ReportRangef records a diagnostic anchored at pos whose construct
// extends to end. The extent only matters for //lint:ignore matching: a
// directive at the end of any line the construct spans suppresses the
// finding, so wrapped statements can carry the directive on their last
// physical line.
func (p *Pass) ReportRangef(pos, end token.Pos, format string, args ...any) {
	d := Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if end.IsValid() {
		d.End = p.Fset.Position(end)
	}
	*p.diags = append(*p.diags, d)
}

// ReportNodef records a diagnostic spanning node n.
func (p *Pass) ReportNodef(n ast.Node, format string, args ...any) {
	p.ReportRangef(n.Pos(), n.End(), format, args...)
}

// Inspect replays the package's shared traversal (one AST walk for the
// whole analyzer suite, see Inspector) for the node types in mask, handing
// visit the stack of enclosing nodes (outermost first, n last).
func (p *Pass) Inspect(mask uint64, visit func(n ast.Node, stack []ast.Node)) {
	p.insp.WithStack(mask, visit)
}

// Preorder is Inspect without the ancestor stack.
func (p *Pass) Preorder(mask uint64, visit func(n ast.Node)) {
	p.insp.Preorder(mask, visit)
}

// TypeOf returns the type of expression e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one finding, positioned in the original source.
type Diagnostic struct {
	Pos token.Position
	// End is the position just past the flagged construct; the zero value
	// means the construct is taken to end on Pos.Line.
	End      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// ignoreDirective is a parsed //lint:ignore comment.
type ignoreDirective struct {
	line      int
	analyzers map[string]bool // names the directive suppresses
	used      bool
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts the //lint:ignore directives from a file and
// reports malformed ones (missing analyzer or reason) as diagnostics so
// suppressions stay auditable.
func parseIgnores(fset *token.FileSet, f *ast.File, known map[string]bool, diags *[]Diagnostic) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				*diags = append(*diags, Diagnostic{
					Pos:      pos,
					Analyzer: "ignore",
					Message:  "malformed //lint:ignore directive: want \"//lint:ignore <analyzer> <reason>\"",
				})
				continue
			}
			names := strings.Split(fields[0], ",")
			set := make(map[string]bool, len(names))
			bad := false
			for _, n := range names {
				if !known[n] {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "ignore",
						Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", n),
					})
					bad = true
					continue
				}
				set[n] = true
			}
			if bad && len(set) == 0 {
				continue
			}
			out = append(out, &ignoreDirective{line: pos.Line, analyzers: set})
		}
	}
	return out
}

// Runner applies a set of analyzers to packages.
type Runner struct {
	Analyzers []*Analyzer
}

// NewRunner returns a runner over the given analyzers.
func NewRunner(as []*Analyzer) *Runner { return &Runner{Analyzers: as} }

// RunPackage runs every analyzer over pkg and returns the surviving
// diagnostics, sorted by position, with //lint:ignore suppressions applied.
func (r *Runner) RunPackage(pkg *Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	insp := pkg.Inspector()
	for _, a := range r.Analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			PkgPath:   pkg.Path,
			GoVersion: pkg.GoVersion,
			insp:      insp,
			pkg:       pkg,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	// Directives validate against the full registry, not this runner's
	// enabled subset: naming a disabled analyzer is a fine (dormant)
	// suppression, only a name no analyzer has ever had is a typo.
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	// Suppression directives and their diagnostics, per file.
	var directiveDiags []Diagnostic
	ignores := make(map[string][]*ignoreDirective)
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		ignores[name] = parseIgnores(pkg.Fset, f, known, &directiveDiags)
	}
	kept := directiveDiags
	for _, d := range diags {
		if !suppressed(d, ignores[d.Pos.Filename]) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return kept, nil
}

// suppressed reports whether a directive names the diagnostic's analyzer
// from the line immediately above the diagnostic, or from any line the
// flagged construct spans — so an end-of-line directive works on the last
// line of a wrapped statement, not only when it happens to share the
// anchor position's line.
func suppressed(d Diagnostic, dirs []*ignoreDirective) bool {
	last := d.Pos.Line
	if d.End.Line > last && d.End.Filename == d.Pos.Filename {
		last = d.End.Line
	}
	for _, dir := range dirs {
		if dir.line >= d.Pos.Line-1 && dir.line <= last && dir.analyzers[d.Analyzer] {
			dir.used = true
			return true
		}
	}
	return false
}
