// Command mrmlint runs the repository's numerical-hygiene analyzers (see
// internal/lint) over module packages and reports findings with file:line
// positions. It exits 0 when clean, 1 when there are findings and 2 on
// usage or load errors.
//
//	mrmlint ./...                     # whole module
//	mrmlint -disable=bannedcall ./internal/...
//	mrmlint -enable=floatcmp,aliasret ./internal/sparse
//	mrmlint -json ./...               # one JSON object per finding
//	mrmlint -github ./...             # GitHub Actions ::error annotations
//	mrmlint -list                     # describe the analyzers
//
// Findings are suppressed case by case with a comment on (or directly
// above) the flagged line:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/performability/csrl/internal/lint"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("mrmlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the analyzers and exit")
		enable   = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable  = fs.String("disable", "", "comma-separated analyzers to skip")
		jsonMode = fs.Bool("json", false, "emit one JSON object per finding (module-relative paths)")
		ghMode   = fs.Bool("github", false, "emit GitHub Actions ::error annotations")
		useCache = fs.Bool("cache", false, "reuse per-package results from the incremental cache")
		cacheDir = fs.String("cache-dir", ".mrmlint-cache", "cache directory (relative paths resolve against the module root)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: mrmlint [-list] [-enable=a,b] [-disable=a,b] [-json|-github] [-cache [-cache-dir=d]] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonMode && *ghMode {
		fmt.Fprintln(stderr, "mrmlint: -json and -github are mutually exclusive")
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "mrmlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "mrmlint:", err)
		return 2
	}
	mode := emitPlain
	switch {
	case *jsonMode:
		mode = emitJSON
	case *ghMode:
		mode = emitGitHub
	}
	cacheOpt := ""
	if *useCache {
		cacheOpt = *cacheDir
	}
	n, cache, err := lintPackagesCached(stdout, cwd, patterns, analyzers, mode, cacheOpt)
	if err != nil {
		fmt.Fprintln(stderr, "mrmlint:", err)
		return 2
	}
	if cache != nil {
		fmt.Fprintln(stderr, cache.stats(*jsonMode))
	}
	if n > 0 {
		fmt.Fprintf(stderr, "mrmlint: %d finding(s)\n", n)
		return 1
	}
	return 0
}

// emitMode renders one diagnostic to the output stream. moduleDir is the
// absolute module root, for modes that want portable relative paths.
type emitMode func(w io.Writer, moduleDir string, d lint.Diagnostic)

func emitPlain(w io.Writer, _ string, d lint.Diagnostic) {
	fmt.Fprintln(w, d)
}

// jsonDiagnostic is the stable machine-readable shape: one object per
// line, file paths module-relative with forward slashes. Every line is
// stamped with the producing analyzer's version and the registry hash so a
// consumer diffing stored findings can tell "the code changed" apart from
// "the analyzers changed".
type jsonDiagnostic struct {
	File            string `json:"file"`
	Line            int    `json:"line"`
	Column          int    `json:"column"`
	EndLine         int    `json:"endLine,omitempty"`
	Analyzer        string `json:"analyzer"`
	AnalyzerVersion int    `json:"analyzerVersion"`
	Registry        string `json:"registry"`
	Message         string `json:"message"`
}

// registryStamp fingerprints the analyzer set baked into this binary.
var registryStamp = lint.RegistryHash()

// analyzerVersion looks up the version of the named analyzer (the zero
// value is version 1, matching the registry hash convention).
func analyzerVersion(name string) int {
	if a := lint.ByName(name); a != nil && a.Version != 0 {
		return a.Version
	}
	return 1
}

func emitJSON(w io.Writer, moduleDir string, d lint.Diagnostic) {
	jd := jsonDiagnostic{
		File:            moduleRelative(moduleDir, d.Pos.Filename),
		Line:            d.Pos.Line,
		Column:          d.Pos.Column,
		Analyzer:        d.Analyzer,
		AnalyzerVersion: analyzerVersion(d.Analyzer),
		Registry:        registryStamp,
		Message:         d.Message,
	}
	if d.End.Line > d.Pos.Line && d.End.Filename == d.Pos.Filename {
		jd.EndLine = d.End.Line
	}
	out, err := json.Marshal(jd)
	if err != nil {
		// A Diagnostic is strings and ints; Marshal cannot fail on it.
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", out)
}

func emitGitHub(w io.Writer, moduleDir string, d lint.Diagnostic) {
	endLine := d.Pos.Line
	if d.End.Line > endLine && d.End.Filename == d.Pos.Filename {
		endLine = d.End.Line
	}
	fmt.Fprintf(w, "::error file=%s,line=%d,endLine=%d,col=%d,title=%s::%s\n",
		ghEscapeProperty(moduleRelative(moduleDir, d.Pos.Filename)),
		d.Pos.Line, endLine, d.Pos.Column,
		ghEscapeProperty("mrmlint("+d.Analyzer+")"),
		ghEscapeData(d.Message))
}

// moduleRelative renders an absolute filename relative to the module root
// with forward slashes, falling back to the absolute path outside it.
func moduleRelative(moduleDir, filename string) string {
	rel, err := filepath.Rel(moduleDir, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}

// ghEscapeData escapes a workflow-command message per the GitHub Actions
// runner rules.
func ghEscapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// ghEscapeProperty escapes a workflow-command property value; properties
// additionally reserve ':' and ','.
func ghEscapeProperty(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

// lintPackages loads every package matched by patterns (relative to dir)
// and returns the number of findings printed.
func lintPackages(stdout io.Writer, dir string, patterns []string, analyzers []*lint.Analyzer, emit emitMode) (int, error) {
	n, _, err := lintPackagesCached(stdout, dir, patterns, analyzers, emit, "")
	return n, err
}

// lintPackagesCached is lintPackages with an optional incremental cache:
// a non-empty cacheDir serves unchanged packages from the store instead
// of re-analyzing them, and records the analyzed ones. The diagnostic
// stream on stdout is byte-identical between cold and warm runs; the
// cold/warm statistics live on the returned cache.
func lintPackagesCached(stdout io.Writer, dir string, patterns []string, analyzers []*lint.Analyzer, emit emitMode, cacheDir string) (int, *lintCache, error) {
	loader, err := lint.NewLoader(dir)
	if err != nil {
		return 0, nil, err
	}
	dirs, err := loader.Expand(dir, patterns)
	if err != nil {
		return 0, nil, err
	}
	if len(dirs) == 0 {
		return 0, nil, fmt.Errorf("no packages match %s", strings.Join(patterns, " "))
	}
	var cache *lintCache
	if cacheDir != "" {
		cache, err = newLintCache(cacheDir, loader.ModuleDir, loader.ModulePath, loader.GoVersion, analyzers)
		if err != nil {
			return 0, nil, err
		}
	}
	runner := lint.NewRunner(analyzers)
	total := 0
	for _, d := range dirs {
		var diags []lint.Diagnostic
		if cache != nil {
			if cached, ok := cache.get(d); ok {
				cache.Warm++
				for _, diag := range cached {
					emit(stdout, loader.ModuleDir, diag)
				}
				total += len(cached)
				continue
			}
		}
		pkg, err := loader.LoadDir(d)
		if err != nil {
			return 0, cache, err
		}
		diags, err = runner.RunPackage(pkg)
		if err != nil {
			return 0, cache, err
		}
		if cache != nil {
			cache.Cold++
			if err := cache.put(d, diags); err != nil {
				return 0, cache, err
			}
		}
		for _, diag := range diags {
			emit(stdout, loader.ModuleDir, diag)
		}
		total += len(diags)
	}
	return total, cache, nil
}

// selectAnalyzers applies the -enable/-disable flags to the registry.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	byName := make(map[string]*lint.Analyzer)
	for _, a := range lint.All() {
		byName[a.Name] = a
	}
	parse := func(list string) (map[string]bool, error) {
		set := make(map[string]bool)
		if list == "" {
			return set, nil
		}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if byName[name] == nil {
				known := make([]string, 0, len(byName))
				for n := range byName {
					known = append(known, n)
				}
				sort.Strings(known)
				return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, strings.Join(known, ", "))
			}
			set[name] = true
		}
		return set, nil
	}
	on, err := parse(enable)
	if err != nil {
		return nil, err
	}
	off, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range lint.All() {
		if len(on) > 0 && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("flag selection leaves no analyzers enabled")
	}
	return out, nil
}
