package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Path is the package's import path.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// GoVersion is the module's go directive ("1.22"); version-gated
	// checks treat "" as current.
	GoVersion string

	insp *Inspector
	// deps resolves an already-loaded module-internal import path, so the
	// summary engine can follow cross-package calls. Nil (the golden-file
	// harness) limits summaries to the current package plus the builtin
	// registry.
	deps func(path string) *Package
	sums *Summaries
	cfgs map[*ast.BlockStmt]*CFG
	ssas map[*ast.BlockStmt]*SSA
}

// Inspector returns the package's shared traversal, building it on first
// use. Every analyzer replays this one walk (see Inspector).
func (p *Package) Inspector() *Inspector {
	if p.insp == nil {
		p.insp = NewInspector(p.Files)
	}
	return p.insp
}

// Loader parses and type-checks packages of a single module using only the
// standard library: module-internal imports are resolved recursively from
// source, everything else (the standard library) goes through
// go/importer's source importer.
type Loader struct {
	ModuleDir  string
	ModulePath string
	// GoVersion is the module's go directive, e.g. "1.22" ("" if absent).
	GoVersion string

	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// NewLoader returns a loader rooted at the module containing dir: it walks
// upward until it finds a go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, goVersion, err := moduleDirectives(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	srcImp, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		ModuleDir:  root,
		ModulePath: modPath,
		GoVersion:  goVersion,
		fset:       fset,
		std:        srcImp,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// Fset returns the loader's file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

func moduleDirectives(gomod string) (path, goVersion string, err error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			path = strings.Trim(strings.TrimSpace(rest), `"`)
		} else if rest, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = strings.TrimSpace(rest)
		}
	}
	if path == "" {
		return "", "", fmt.Errorf("lint: no module directive in %s", gomod)
	}
	return path, goVersion, nil
}

// Expand resolves package patterns (a directory, or a prefix ending in
// "/...") relative to dir into the sorted list of package directories.
func (l *Loader) Expand(dir string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(d string) {
		if !seen[d] && hasGoFiles(d) {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(dir, pat)
		}
		base, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(base, l.ModuleDir) {
			return nil, fmt.Errorf("lint: pattern %q escapes module %s", pat, l.ModuleDir)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && buildsHere(dir, e.Name()) {
			return true
		}
	}
	return false
}

// buildsHere reports whether name in dir is a non-test Go file that go
// build would compile for the host platform: its file-name suffix and
// //go:build line are matched as the go command matches them, so a
// package with per-platform files type-checks as one set.
func buildsHere(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return ok && err == nil
}

// LoadDir parses and type-checks the package in dir (non-test files only).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleDir)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !buildsHere(dir, name) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	tpkg, info, err := l.TypeCheck(path, files)
	if err != nil {
		return nil, err
	}
	p := &Package{Dir: dir, Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info, GoVersion: l.GoVersion}
	p.deps = func(path string) *Package { return l.pkgs[path] }
	l.pkgs[path] = p
	return p, nil
}

// TypeCheck type-checks the given parsed files as package path, resolving
// imports through the loader. It is exported so the golden-file test
// harness can check testdata sources under a chosen synthetic import path.
func (l *Loader) TypeCheck(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: &chainImporter{l: l}}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return tpkg, info, nil
}

// chainImporter resolves module-internal import paths via the loader and
// delegates everything else to the standard library source importer.
type chainImporter struct {
	l *Loader
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	l := c.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.ModuleDir, 0)
}
