package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"github.com/performability/csrl/internal/lint"
)

// newLoader returns a loader rooted at this module.
func newLoader(t *testing.T) *lint.Loader {
	t.Helper()
	l, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	return l
}

// loadGolden type-checks one testdata/lint file under a synthetic import
// path and runs a single analyzer over it.
func loadGolden(t *testing.T, l *lint.Loader, relFile, pkgPath, analyzer string) []lint.Diagnostic {
	t.Helper()
	return loadGoldenVersion(t, l, relFile, pkgPath, analyzer, "")
}

// loadGoldenVersion is loadGolden with an explicit module go version, for
// analyzers whose checks are gated on the go directive (goVersion ""
// means "current toolchain semantics").
func loadGoldenVersion(t *testing.T, l *lint.Loader, relFile, pkgPath, analyzer, goVersion string) []lint.Diagnostic {
	t.Helper()
	full := filepath.Join(l.ModuleDir, "testdata", "lint", filepath.FromSlash(relFile))
	f, err := parser.ParseFile(l.Fset(), full, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", relFile, err)
	}
	tpkg, info, err := l.TypeCheck(pkgPath, []*ast.File{f})
	if err != nil {
		t.Fatalf("type-check %s: %v", relFile, err)
	}
	a := lint.ByName(analyzer)
	if a == nil {
		t.Fatalf("unknown analyzer %q", analyzer)
	}
	pkg := &lint.Package{
		Dir:       filepath.Dir(full),
		Path:      pkgPath,
		Fset:      l.Fset(),
		Files:     []*ast.File{f},
		Types:     tpkg,
		Info:      info,
		GoVersion: goVersion,
	}
	diags, err := lint.NewRunner([]*lint.Analyzer{a}).RunPackage(pkg)
	if err != nil {
		t.Fatalf("run %s on %s: %v", analyzer, relFile, err)
	}
	return diags
}

var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// checkGolden compares diagnostics against the file's `// want "substr"`
// comments: every diagnostic must land on a line with a matching want, and
// every want must be matched by exactly one diagnostic.
func checkGolden(t *testing.T, relFile string, diags []lint.Diagnostic) {
	t.Helper()
	l := newLoader(t)
	full := filepath.Join(l.ModuleDir, "testdata", "lint", filepath.FromSlash(relFile))
	src, err := os.ReadFile(full)
	if err != nil {
		t.Fatalf("read %s: %v", relFile, err)
	}
	type want struct {
		line int
		sub  string
		hit  bool
	}
	var wants []*want
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			wants = append(wants, &want{line: i + 1, sub: m[1]})
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.line == d.Pos.Line && strings.Contains(d.Message, w.sub) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s (%s)", relFile, d.Pos.Line, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", relFile, w.line, w.sub)
		}
	}
}

// goldenCase is one testdata/lint file, the import path it is
// type-checked under and the analyzer run over it.
type goldenCase struct {
	file      string
	pkgPath   string
	analyzer  string
	goVersion string
}

// goldenCases lists the golden files under module path mod.
func goldenCases(mod string) []goldenCase {
	fakePath := mod + "/internal/fake"
	return []goldenCase{
		{file: "floatcmp/positive.go", pkgPath: fakePath, analyzer: "floatcmp"},
		{file: "floatcmp/negative.go", pkgPath: fakePath, analyzer: "floatcmp"},
		{file: "expunderflow/positive.go", pkgPath: fakePath, analyzer: "expunderflow"},
		{file: "expunderflow/negative.go", pkgPath: mod + "/internal/numeric", analyzer: "expunderflow"},
		{file: "expunderflow/negative_outside.go", pkgPath: fakePath, analyzer: "expunderflow"},
		{file: "droppederr/positive.go", pkgPath: fakePath, analyzer: "droppederr"},
		{file: "droppederr/negative.go", pkgPath: fakePath, analyzer: "droppederr"},
		{file: "aliasret/positive.go", pkgPath: mod + "/internal/sparse", analyzer: "aliasret"},
		{file: "aliasret/negative.go", pkgPath: mod + "/internal/sparse", analyzer: "aliasret"},
		{file: "aliasret/negative_otherpkg.go", pkgPath: fakePath, analyzer: "aliasret"},
		{file: "bannedcall/positive.go", pkgPath: fakePath, analyzer: "bannedcall"},
		{file: "bannedcall/negative.go", pkgPath: mod + "/cmd/fake", analyzer: "bannedcall"},
		{file: "guardedfield/positive.go", pkgPath: fakePath, analyzer: "guardedfield"},
		{file: "guardedfield/negative.go", pkgPath: fakePath, analyzer: "guardedfield"},
		{file: "goroutinemisuse/positive.go", pkgPath: fakePath, analyzer: "goroutinemisuse"},
		{file: "goroutinemisuse/negative.go", pkgPath: fakePath, analyzer: "goroutinemisuse"},
		{file: "goroutinemisuse/capture_old.go", pkgPath: fakePath, analyzer: "goroutinemisuse", goVersion: "1.21"},
		{file: "maporder/positive.go", pkgPath: fakePath, analyzer: "maporder"},
		{file: "maporder/negative.go", pkgPath: fakePath, analyzer: "maporder"},
		{file: "ignore/suppressed.go", pkgPath: fakePath, analyzer: "floatcmp"},
		{file: "ignore/multiline.go", pkgPath: fakePath, analyzer: "floatcmp"},
		{file: "epsbudget/positive.go", pkgPath: fakePath, analyzer: "epsbudget"},
		{file: "epsbudget/negative.go", pkgPath: fakePath, analyzer: "epsbudget"},
		{file: "ledgercharge/positive.go", pkgPath: fakePath, analyzer: "ledgercharge"},
		{file: "ledgercharge/negative.go", pkgPath: fakePath, analyzer: "ledgercharge"},
		{file: "poolescape/positive.go", pkgPath: fakePath, analyzer: "poolescape"},
		{file: "poolescape/negative.go", pkgPath: fakePath, analyzer: "poolescape"},
		{file: "poolescape/embedded.go", pkgPath: fakePath, analyzer: "poolescape"},
		{file: "floatcmp/wrappers.go", pkgPath: fakePath, analyzer: "floatcmp"},
		{file: "domainflow/positive.go", pkgPath: fakePath, analyzer: "domainflow"},
		{file: "domainflow/negative.go", pkgPath: fakePath, analyzer: "domainflow"},
		{file: "domainflow/suppressed.go", pkgPath: fakePath, analyzer: "domainflow"},
		{file: "probrange/positive.go", pkgPath: fakePath, analyzer: "probrange"},
		{file: "probrange/negative.go", pkgPath: fakePath, analyzer: "probrange"},
		{file: "probrange/suppressed.go", pkgPath: fakePath, analyzer: "probrange"},
		{file: "detorder/positive.go", pkgPath: fakePath, analyzer: "detorder"},
		{file: "detorder/negative.go", pkgPath: fakePath, analyzer: "detorder"},
		{file: "detorder/suppressed.go", pkgPath: fakePath, analyzer: "detorder"},
	}
}

func TestGoldenFiles(t *testing.T) {
	l := newLoader(t)
	for _, tc := range goldenCases(l.ModulePath) {
		t.Run(strings.ReplaceAll(tc.file, "/", "_"), func(t *testing.T) {
			diags := loadGoldenVersion(t, l, tc.file, tc.pkgPath, tc.analyzer, tc.goVersion)
			checkGolden(t, tc.file, diags)
		})
	}
}

// TestIgnoreDirectives asserts directive validation directly: a directive
// without a reason and one naming an unknown analyzer are both reported,
// and neither suppresses the finding it sits on.
func TestIgnoreDirectives(t *testing.T) {
	l := newLoader(t)
	diags := loadGolden(t, l, "ignore/malformed.go", l.ModulePath+"/internal/fake", "floatcmp")
	var gotMalformed, gotUnknown bool
	var floatcmpCount int
	for _, d := range diags {
		switch {
		case d.Analyzer == "ignore" && strings.Contains(d.Message, "malformed //lint:ignore"):
			gotMalformed = true
		case d.Analyzer == "ignore" && strings.Contains(d.Message, "unknown analyzer"):
			gotUnknown = true
		case d.Analyzer == "floatcmp":
			floatcmpCount++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !gotMalformed {
		t.Error("reason-less directive was not reported as malformed")
	}
	if !gotUnknown {
		t.Error("unknown-analyzer directive was not reported")
	}
	if floatcmpCount != 2 {
		t.Errorf("got %d floatcmp findings, want 2 (invalid directives must not suppress)", floatcmpCount)
	}
}

func TestDiagnosticString(t *testing.T) {
	l := newLoader(t)
	diags := loadGolden(t, l, "floatcmp/positive.go", l.ModulePath+"/internal/fake", "floatcmp")
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "positive.go:") || !strings.HasSuffix(s, "(floatcmp)") {
		t.Errorf("diagnostic rendering %q lacks file:line or analyzer suffix", s)
	}
}

func TestAnalyzerRegistry(t *testing.T) {
	all := lint.All()
	if len(all) < 12 {
		t.Fatalf("registry has %d analyzers, want >= 12", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if lint.ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName of an unknown analyzer should be nil")
	}
	// Every analyzer has a positive golden case, and every golden
	// directory (ignore, the directive fixtures, aside) names an analyzer.
	positive := make(map[string]bool)
	for _, tc := range goldenCases("") {
		if strings.HasPrefix(filepath.Base(tc.file), "positive") {
			positive[tc.analyzer] = true
		}
	}
	for _, a := range all {
		if !positive[a.Name] {
			t.Errorf("analyzer %q has no positive case in TestGoldenFiles", a.Name)
		}
	}
	entries, err := os.ReadDir(filepath.Join(newLoader(t).ModuleDir, "testdata", "lint"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() != "ignore" && lint.ByName(e.Name()) == nil {
			t.Errorf("testdata/lint/%s names no registered analyzer", e.Name())
		}
	}
}

func TestLoaderExpand(t *testing.T) {
	l := newLoader(t)
	dirs, err := l.Expand(l.ModuleDir, []string{"./..."})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	var haveSparse, haveDriver bool
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand included testdata directory %s", d)
		}
		if strings.HasSuffix(d, filepath.FromSlash("internal/sparse")) {
			haveSparse = true
		}
		if strings.HasSuffix(d, filepath.FromSlash("cmd/mrmlint")) {
			haveDriver = true
		}
	}
	if !haveSparse || !haveDriver {
		t.Errorf("Expand(./...) missed expected packages (sparse=%v driver=%v) in %d dirs", haveSparse, haveDriver, len(dirs))
	}
}

func TestLoaderLoadDir(t *testing.T) {
	l := newLoader(t)
	pkg, err := l.LoadDir(filepath.Join(l.ModuleDir, "internal", "sparse"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.Types.Name() != "sparse" {
		t.Errorf("package name %q, want sparse", pkg.Types.Name())
	}
	if want := l.ModulePath + "/internal/sparse"; pkg.Path != want {
		t.Errorf("package path %q, want %q", pkg.Path, want)
	}
	if len(pkg.Files) == 0 {
		t.Error("no files loaded")
	}
	// Loading a package that imports another module package exercises the
	// chained importer.
	if _, err := l.LoadDir(filepath.Join(l.ModuleDir, "internal", "numeric")); err != nil {
		t.Fatalf("LoadDir(numeric): %v", err)
	}
}

// TestLoaderPlatformFiles loads internal/parallel, which keeps osYield in
// one file per platform: the loader must take only the file that builds
// here, as go build does, or the package declares osYield twice.
func TestLoaderPlatformFiles(t *testing.T) {
	l := newLoader(t)
	pkg, err := l.LoadDir(filepath.Join(l.ModuleDir, "internal", "parallel"))
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	want := "yield_other.go"
	if runtime.GOOS == "linux" {
		want = "yield_linux.go"
	}
	var got []string
	for _, f := range pkg.Files {
		if name := filepath.Base(pkg.Fset.File(f.Pos()).Name()); strings.HasPrefix(name, "yield_") {
			got = append(got, name)
		}
	}
	if len(got) != 1 || got[0] != want {
		t.Errorf("loaded yield files %v, want [%s]", got, want)
	}
}

func TestLoaderRejectsOutsidePattern(t *testing.T) {
	l := newLoader(t)
	if _, err := l.Expand(l.ModuleDir, []string{"../elsewhere"}); err == nil {
		t.Error("pattern escaping the module was accepted")
	}
}

// Example of the suppression syntax for the README: not a test, but keeps
// the documented form compiling in CI.
func Example() {
	fmt.Println("//lint:ignore floatcmp <reason>")
	// Output: //lint:ignore floatcmp <reason>
}
