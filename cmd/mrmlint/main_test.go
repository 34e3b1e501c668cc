package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"github.com/performability/csrl/internal/lint"
)

func TestSelectAnalyzers(t *testing.T) {
	all := lint.All()

	got, err := selectAnalyzers("", "")
	if err != nil {
		t.Fatalf("default selection: %v", err)
	}
	if len(got) != len(all) {
		t.Errorf("default selection has %d analyzers, want %d", len(got), len(all))
	}

	got, err = selectAnalyzers("floatcmp,aliasret", "")
	if err != nil {
		t.Fatalf("enable selection: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("enable=floatcmp,aliasret selected %d analyzers, want 2", len(got))
	}

	got, err = selectAnalyzers("", "bannedcall")
	if err != nil {
		t.Fatalf("disable selection: %v", err)
	}
	if len(got) != len(all)-1 {
		t.Errorf("disable=bannedcall selected %d analyzers, want %d", len(got), len(all)-1)
	}
	for _, a := range got {
		if a.Name == "bannedcall" {
			t.Error("disabled analyzer still selected")
		}
	}

	if _, err := selectAnalyzers("nosuch", ""); err == nil {
		t.Error("unknown analyzer name was accepted")
	}
	if _, err := selectAnalyzers("floatcmp", "floatcmp"); err == nil {
		t.Error("empty selection was accepted")
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-list"}); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, stderr.String())
	}
	for _, a := range lint.All() {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing analyzer %q", a.Name)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-enable=nosuch"}); code != 2 {
		t.Errorf("unknown analyzer exited %d, want 2", code)
	}
	if code := run(&stdout, &stderr, []string{"-nosuchflag"}); code != 2 {
		t.Errorf("unknown flag exited %d, want 2", code)
	}
}

// TestModuleIsClean is the baseline guarantee: the tool reports zero
// findings over its own module. New code that trips an analyzer must be
// fixed or carry a //lint:ignore with a reason.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	var out bytes.Buffer
	n, _, err := lintPackagesCached(&out, loader.ModuleDir, []string{"./..."}, lint.All(), emitPlain, "")
	if err != nil {
		t.Fatalf("lintPackagesCached: %v", err)
	}
	if n != 0 {
		t.Errorf("module has %d lint findings:\n%s", n, out.String())
	}
}

func TestLintPackagesNoMatch(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	if _, _, err := lintPackagesCached(io.Discard, loader.ModuleDir, []string{"./nosuchdir"}, lint.All(), emitPlain, ""); err == nil {
		t.Error("nonexistent package pattern did not error")
	}
}

func TestRunModeFlagsExclusive(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-json", "-github"}); code != 2 {
		t.Errorf("-json -github exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "mutually exclusive") {
		t.Errorf("stderr %q does not explain the flag conflict", stderr.String())
	}
}

func sampleDiagnostic() lint.Diagnostic {
	d := lint.Diagnostic{Analyzer: "floatcmp", Message: "50% of a == b\nis wrong"}
	d.Pos.Filename = "/mod/internal/sparse/csr.go"
	d.Pos.Line = 7
	d.Pos.Column = 3
	d.End.Filename = "/mod/internal/sparse/csr.go"
	d.End.Line = 9
	return d
}

func TestEmitJSON(t *testing.T) {
	var out bytes.Buffer
	emitJSON(&out, "/mod", sampleDiagnostic())
	var got struct {
		File            string `json:"file"`
		Line            int    `json:"line"`
		Column          int    `json:"column"`
		EndLine         int    `json:"endLine"`
		Analyzer        string `json:"analyzer"`
		AnalyzerVersion int    `json:"analyzerVersion"`
		Registry        string `json:"registry"`
		Message         string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("output %q is not valid JSON: %v", out.String(), err)
	}
	if got.File != "internal/sparse/csr.go" {
		t.Errorf("file %q, want module-relative slash path", got.File)
	}
	if got.Line != 7 || got.Column != 3 || got.EndLine != 9 {
		t.Errorf("position %d:%d end %d, want 7:3 end 9", got.Line, got.Column, got.EndLine)
	}
	if got.Analyzer != "floatcmp" || !strings.Contains(got.Message, "50%") {
		t.Errorf("payload %+v does not round-trip analyzer/message", got)
	}
	if got.AnalyzerVersion < 1 {
		t.Errorf("analyzerVersion %d, want >= 1", got.AnalyzerVersion)
	}
	if got.Registry == "" || got.Registry != lint.RegistryHash() {
		t.Errorf("registry stamp %q does not match lint.RegistryHash() %q", got.Registry, lint.RegistryHash())
	}
	if strings.Count(out.String(), "\n") != 1 {
		t.Errorf("output %q is not exactly one line", out.String())
	}
}

func TestEmitGitHub(t *testing.T) {
	var out bytes.Buffer
	emitGitHub(&out, "/mod", sampleDiagnostic())
	line := out.String()
	if !strings.HasPrefix(line, "::error file=internal/sparse/csr.go,line=7,endLine=9,col=3,title=mrmlint(floatcmp)::") {
		t.Errorf("annotation %q has the wrong command/properties", line)
	}
	if !strings.Contains(line, "50%25 of a == b%0Ais wrong") {
		t.Errorf("annotation %q does not escape %% and newline", line)
	}
	if strings.Count(line, "\n") != 1 {
		t.Errorf("annotation %q is not exactly one line", line)
	}
}
