package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/performability/csrl/internal/lint"
)

// cacheFormat versions the on-disk entry layout; bumping it orphans every
// stored entry (they are re-created on the next cold run and the stale
// files are simply never read again).
const cacheFormat = "mrmlint-cache-v1"

// lintCache is the incremental result store: one entry per package,
// keyed by a hash chain that covers everything a package's diagnostics
// can depend on — the analyzer registry (names and versions via
// lint.RegistryHash), the enabled subset, the module go directive, the
// toolchain version (standard-library types come from the toolchain, so
// a cache restored under another Go release must not replay its
// findings), the package's own source bytes, and, recursively, the keys of its
// module-internal dependencies. A source edit therefore invalidates the
// edited package and every package whose interprocedural summaries could
// have seen the change, while unrelated packages stay warm.
type lintCache struct {
	dir        string // entry directory
	moduleDir  string
	modulePath string
	salt       string

	keys    map[string]string // package dir → cache key
	visited map[string]bool   // cycle guard for key computation

	// Cold counts packages that were analyzed this run, Warm packages
	// served from the store.
	Cold, Warm int
}

// newLintCache opens (creating if needed) a cache under cacheDir for the
// module rooted at moduleDir. analyzers is the enabled subset; goVersion
// the module's go directive; toolchain the running Go release
// (runtime.Version()). A relative cacheDir is resolved against the
// module root, so CI and local runs share `.mrmlint-cache/` regardless of
// the invocation directory.
func newLintCache(cacheDir, moduleDir, modulePath, goVersion, toolchain string, analyzers []*lint.Analyzer) (*lintCache, error) {
	if !filepath.IsAbs(cacheDir) {
		cacheDir = filepath.Join(moduleDir, cacheDir)
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, fmt.Errorf("mrmlint: cache dir: %w", err)
	}
	enabled := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		enabled = append(enabled, a.Name+"@v"+strconv.Itoa(analyzerVersion(a.Name)))
	}
	sort.Strings(enabled)
	h := sha256.New()
	fmt.Fprintln(h, cacheFormat)
	fmt.Fprintln(h, lint.RegistryHash())
	fmt.Fprintln(h, strings.Join(enabled, ","))
	fmt.Fprintln(h, goVersion)
	fmt.Fprintln(h, toolchain)
	return &lintCache{
		dir:        cacheDir,
		moduleDir:  moduleDir,
		modulePath: modulePath,
		salt:       hex.EncodeToString(h.Sum(nil)),
		keys:       make(map[string]string),
		visited:    make(map[string]bool),
	}, nil
}

// packageFiles lists the non-test .go files of dir in sorted order — the
// same selection the loader lints.
func packageFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// key computes (and memoises) the cache key of the package in dir. The
// hash covers the salt, the module-relative directory, every source file
// (name and content) and the keys of all module-internal imports, so any
// upstream change ripples into every dependent key.
func (c *lintCache) key(dir string) (string, error) {
	if k, ok := c.keys[dir]; ok {
		return k, nil
	}
	if c.visited[dir] {
		return "", fmt.Errorf("mrmlint: import cycle through %s", dir)
	}
	c.visited[dir] = true
	defer delete(c.visited, dir)

	files, err := packageFiles(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(c.moduleDir, dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintln(h, c.salt)
	fmt.Fprintln(h, filepath.ToSlash(rel))
	depSet := make(map[string]bool)
	for _, name := range files {
		full := filepath.Join(dir, name)
		data, err := os.ReadFile(full)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		_, _ = h.Write(data) // hash.Hash.Write never fails
		imps, err := c.moduleImportsOf(full)
		if err != nil {
			return "", err
		}
		for _, p := range imps {
			depSet[p] = true
		}
	}
	deps := make([]string, 0, len(depSet))
	for p := range depSet {
		deps = append(deps, p)
	}
	sort.Strings(deps)
	for _, p := range deps {
		depDir := filepath.Join(c.moduleDir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(p, c.modulePath), "/")))
		dk, err := c.key(depDir)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "dep %s %s\n", p, dk)
	}
	k := hex.EncodeToString(h.Sum(nil))
	c.keys[dir] = k
	return k, nil
}

func (c *lintCache) isModulePath(p string) bool {
	return p == c.modulePath || strings.HasPrefix(p, c.modulePath+"/")
}

// moduleImportsOf returns the module-internal import paths of one file,
// read with an imports-only parse (no bodies, no type checking).
func (c *lintCache) moduleImportsOf(file string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if c.isModulePath(p) {
			out = append(out, p)
		}
	}
	return out, nil
}

// entry is the stored shape: the diagnostics of one package run, with
// module-relative filenames so the cache survives a checkout moving.
type cacheEntry struct {
	Format string            `json:"format"`
	Diags  []lint.Diagnostic `json:"diags"`
}

func (c *lintCache) entryPath(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// get returns the stored diagnostics for the package in dir, with
// filenames re-absolutised, or ok=false on any miss or decode problem (a
// corrupt entry behaves like a cold package and is rewritten).
func (c *lintCache) get(dir string) ([]lint.Diagnostic, bool) {
	k, err := c.key(dir)
	if err != nil {
		return nil, false
	}
	data, err := os.ReadFile(c.entryPath(k))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Format != cacheFormat {
		return nil, false
	}
	for i := range e.Diags {
		e.Diags[i].Pos.Filename = c.absolute(e.Diags[i].Pos.Filename)
		e.Diags[i].End.Filename = c.absolute(e.Diags[i].End.Filename)
	}
	return e.Diags, true
}

// put stores the diagnostics for the package in dir under its current
// key, atomically (write to a temp file, then rename).
func (c *lintCache) put(dir string, diags []lint.Diagnostic) error {
	k, err := c.key(dir)
	if err != nil {
		return err
	}
	e := cacheEntry{Format: cacheFormat, Diags: make([]lint.Diagnostic, len(diags))}
	copy(e.Diags, diags)
	for i := range e.Diags {
		e.Diags[i].Pos.Filename = c.relative(e.Diags[i].Pos.Filename)
		e.Diags[i].End.Filename = c.relative(e.Diags[i].End.Filename)
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "entry-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()           // best-effort cleanup on an already-failing path
		_ = os.Remove(tmp.Name()) // ditto
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup on an already-failing path
		return err
	}
	return os.Rename(tmp.Name(), c.entryPath(k))
}

// relative maps an absolute filename into module-relative slash form for
// storage; filenames outside the module (or already relative) pass
// through unchanged.
func (c *lintCache) relative(filename string) string {
	if filename == "" || !filepath.IsAbs(filename) {
		return filename
	}
	rel, err := filepath.Rel(c.moduleDir, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return filepath.ToSlash(rel)
}

// absolute undoes relative for a loaded entry.
func (c *lintCache) absolute(filename string) string {
	if filename == "" || filepath.IsAbs(filename) {
		return filename
	}
	return filepath.Join(c.moduleDir, filepath.FromSlash(filename))
}

// stats renders the cold/warm counters: a JSON object in json mode (kept
// off stdout so the diagnostic stream stays byte-identical between cold
// and warm runs), a plain sentence otherwise.
func (c *lintCache) stats(jsonMode bool) string {
	if jsonMode {
		out, _ := json.Marshal(map[string]any{
			"cache": map[string]any{"cold": c.Cold, "warm": c.Warm, "dir": c.dir},
		})
		return string(out)
	}
	return fmt.Sprintf("mrmlint: cache: %d package(s) warm, %d cold (%s)", c.Warm, c.Cold, c.dir)
}
