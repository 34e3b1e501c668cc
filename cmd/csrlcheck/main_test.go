package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/discretise"
	"github.com/performability/csrl/internal/modelfile"
	"github.com/performability/csrl/internal/sericola"
)

func writeStationModel(t *testing.T) string {
	t.Helper()
	m, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "station.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := modelfile.Encode(f, m); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunQueryFormula(t *testing.T) {
	path := writeStationModel(t)
	var out bytes.Buffer
	code, err := run([]string{"-model", path, "P=? [ F{t<=24} call_incoming ]"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if !strings.Contains(out.String(), "0.99444") {
		t.Errorf("expected Q2 value in output:\n%s", out.String())
	}
}

func TestRunBoundedFormulaHolds(t *testing.T) {
	path := writeStationModel(t)
	var out bytes.Buffer
	code, err := run([]string{"-model", path, "-states", "P>0.5 [ F{t<=24} call_incoming ]"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	if !strings.Contains(out.String(), "holds in the initial state(s): true") {
		t.Errorf("output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "adhoc_idle+call_idle") {
		t.Errorf("-states listing missing:\n%s", out.String())
	}
}

func TestRunBoundedFormulaFails(t *testing.T) {
	path := writeStationModel(t)
	var out bytes.Buffer
	code, err := run([]string{"-model", path,
		"P>0.5 [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 2 {
		t.Fatalf("exit code %d, want 2 for a failing property", code)
	}
}

func TestRunAlgorithmSelection(t *testing.T) {
	path := writeStationModel(t)
	const formula = "P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]"
	for _, alg := range []string{"sericola", "erlang", "discretise"} {
		var out bytes.Buffer
		args := []string{"-model", path, "-algorithm", alg, "-epsilon", "1e-7", "-k", "128", "-d", "0.03125", formula}
		code, err := run(args, &out)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if code != 0 {
			t.Fatalf("%s: exit code %d", alg, code)
		}
		if !strings.Contains(out.String(), "0.49") {
			t.Errorf("%s: expected a value near 0.497:\n%s", alg, out.String())
		}
	}
}

// TestRunStatsBudget is the acceptance check of the observability layer:
// for the paper's three queries, under each procedure that applies, the
// -stats numerics report must prove that the summed error-budget ledger
// stays within the configured epsilon.
func TestRunStatsBudget(t *testing.T) {
	path := writeStationModel(t)
	cases := []struct {
		name    string
		args    []string
		formula string
		ledger  string // entry each procedure is expected to charge
	}{
		{"Q1 duality", nil, "P=? [ F{r<=600} call_incoming ]", "foxglynn/"},
		{"Q2 transient", nil, "P=? [ F{t<=24} call_incoming ]", "foxglynn/"},
		{"Q3 sericola", []string{"-algorithm", "sericola"},
			"P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]",
			"sericola/series-remainder"},
		{"Q3 erlang", []string{"-algorithm", "erlang", "-k", "128"},
			"P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]",
			"foxglynn/"},
		{"Q3 discretise", []string{"-algorithm", "discretise", "-d", "0.03125"},
			"P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]",
			"discretise/step"},
	}
	const eps = 1e-7
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-model", path, "-stats", "-epsilon", "1e-7"}, tc.args...)
			args = append(args, tc.formula)
			var out bytes.Buffer
			code, err := run(args, &out)
			if err != nil {
				t.Fatal(err)
			}
			if code != 0 {
				t.Fatalf("exit code %d:\n%s", code, out.String())
			}
			text := out.String()
			if !strings.Contains(text, "numerics report:") {
				t.Fatalf("-stats produced no report:\n%s", text)
			}
			if !strings.Contains(text, "error budget (epsilon = 1e-07)") {
				t.Errorf("epsilon missing from the report:\n%s", text)
			}
			// The budget line carries the machine verdict; OK means the
			// summed bounded charges were proved <= eps.
			if !strings.Contains(text, ": OK") || strings.Contains(text, "EXCEEDED") {
				t.Errorf("budget not proved within %g:\n%s", eps, text)
			}
			if !strings.Contains(text, tc.ledger) {
				t.Errorf("expected ledger entry %q missing:\n%s", tc.ledger, text)
			}
		})
	}
	// Without -stats the report must stay disabled.
	var out bytes.Buffer
	if _, err := run([]string{"-model", path, "P=? [ F{t<=24} call_incoming ]"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "numerics report") {
		t.Errorf("report printed without -stats:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeStationModel(t)
	cases := []struct {
		name string
		args []string
	}{
		{"no model", []string{"P>0 [ F doze ]"}},
		{"missing file", []string{"-model", "nope.json", "P>0 [ F doze ]"}},
		{"no formula", []string{"-model", path}},
		{"two formulas", []string{"-model", path, "a", "b"}},
		{"bad formula", []string{"-model", path, "P>0.5 [ a U"}},
		{"bad algorithm", []string{"-model", path, "-algorithm", "magic", "P>0 [ F doze ]"}},
		{"bad cluster spec", []string{"-model", "cluster:x", "P>0 [ F down ]"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if _, err := run(tc.args, &out); err == nil {
				t.Errorf("%v accepted", tc.args)
			}
		})
	}
}

func TestRunWithLumping(t *testing.T) {
	// A left/right-symmetric model that lumps 3 -> 2 states.
	doc := `{
  "states": [
    {"name": "mid", "reward": 1, "labels": ["start"], "init": 1},
    {"name": "left", "reward": 2, "labels": ["edge"]},
    {"name": "right", "reward": 2, "labels": ["edge"]}
  ],
  "transitions": [
    {"from": "mid", "to": "left", "rate": 1},
    {"from": "mid", "to": "right", "rate": 1}
  ]
}`
	path := filepath.Join(t.TempDir(), "sym.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var plain, lumped bytes.Buffer
	if _, err := run([]string{"-model", path, "-lump=false", "-states", "P=? [ F{t<=1} edge ]"}, &plain); err != nil {
		t.Fatalf("plain: %v", err)
	}
	if _, err := run([]string{"-model", path, "-states", "P=? [ F{t<=1} edge ]"}, &lumped); err != nil {
		t.Fatalf("lumped: %v", err)
	}
	// Lumping is on by default; the stats gauges prove the pre-pass really
	// quotiented 3 states into 2 on the default run.
	var stats bytes.Buffer
	if _, err := run([]string{"-model", path, "-stats", "P=? [ F{t<=1} edge ]"}, &stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(stats.String(), "lump.blocks") || !strings.Contains(stats.String(), "lump.states") {
		t.Errorf("expected lump gauges in the stats report:\n%s", stats.String())
	}
	// The per-state values must agree between the two runs.
	extract := func(out string) []string {
		var vals []string
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) == 2 && strings.Contains(f[1], ".") {
				if _, err := strconv.ParseFloat(f[1], 64); err == nil {
					vals = append(vals, f[0]+"="+f[1])
				}
			}
		}
		return vals
	}
	a, b := extract(plain.String()), extract(lumped.String())
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("state listings: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("state %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestRunClusterTruncated exercises the generated-model scheme together
// with the truncated fast path: the verdict comes from forward sweeps over
// the initial state only, the satisfying-state listing is skipped, and the
// dropped mass shows up as a bounded ledger charge.
func TestRunClusterTruncated(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-model", "cluster:8", "-truncate", "1e-14", "-stats",
		"P<=0.021 [ !down U{t<=96} down ]"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "(162 states)") {
		t.Errorf("cluster:8 should have 162 states:\n%s", text)
	}
	if !strings.Contains(text, "satisfying states: not computed") {
		t.Errorf("truncated run should skip the full listing:\n%s", text)
	}
	if !strings.Contains(text, "holds in the initial state(s): true") {
		t.Errorf("property should hold:\n%s", text)
	}
	if !strings.Contains(text, "truncation/state-drop") {
		t.Errorf("ledger should carry the truncation term:\n%s", text)
	}
	if !strings.Contains(text, ": OK") {
		t.Errorf("budget should be proved:\n%s", text)
	}
	// -states forces the dense listing even when truncating.
	var listed bytes.Buffer
	code, err = run([]string{"-model", "cluster:8", "-truncate", "1e-14", "-states",
		"P<=0.021 [ !down U{t<=96} down ]"}, &listed)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, listed.String())
	}
	if !strings.Contains(listed.String(), "of 162") || strings.Contains(listed.String(), "not computed") {
		t.Errorf("-states should compute the full listing:\n%s", listed.String())
	}
}

// TestRunHelpExitsZero pins the -h/-help contract: asking for usage is a
// successful invocation, so run must return exit code 0 and no error (the
// old behaviour surfaced flag.ErrHelp, printing "csrlcheck: flag: help
// requested" to stderr and exiting 1).
func TestRunHelpExitsZero(t *testing.T) {
	for _, flagName := range []string{"-h", "-help", "--help"} {
		var out bytes.Buffer
		code, err := run([]string{flagName}, &out)
		if err != nil {
			t.Errorf("%s: err = %v, want nil", flagName, err)
		}
		if code != 0 {
			t.Errorf("%s: exit code %d, want 0", flagName, code)
		}
	}
}

// TestRunClusterRejectsNonPositiveN pins the -model cluster:N validation:
// N <= 0 must fail with a clear message instead of being handed to the
// generator.
func TestRunClusterRejectsNonPositiveN(t *testing.T) {
	for _, spec := range []string{"cluster:0", "cluster:-1", "cluster:-224"} {
		var out bytes.Buffer
		_, err := run([]string{"-model", spec, "P>0 [ F down ]"}, &out)
		if err == nil {
			t.Errorf("%s accepted", spec)
			continue
		}
		if !strings.Contains(err.Error(), "N >= 1") {
			t.Errorf("%s: error %q should explain the N >= 1 requirement", spec, err)
		}
	}
}

// TestRunQueryTruncatedFastPath pins the satellite fix: a P=? query with
// -truncate must route the initial-distribution value through the forward
// truncated sweep instead of the dense all-states Values computation, and
// the value must agree with the dense run to within the accuracy.
func TestRunQueryTruncatedFastPath(t *testing.T) {
	const formula = "P=? [ !down U{t<=96} down ]"
	var dense, fast bytes.Buffer
	if _, err := run([]string{"-model", "cluster:8", formula}, &dense); err != nil {
		t.Fatal(err)
	}
	code, err := run([]string{"-model", "cluster:8", "-truncate", "1e-14", "-stats", formula}, &fast)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, fast.String())
	}
	text := fast.String()
	if !strings.Contains(text, "per-state values: not computed") {
		t.Errorf("truncated query should skip the dense sweep:\n%s", text)
	}
	if !strings.Contains(text, "truncation/state-drop") {
		t.Errorf("forward sweep should charge the truncation term:\n%s", text)
	}
	extract := func(out string) float64 {
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, "value from the initial distribution: "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					t.Fatalf("parse %q: %v", rest, err)
				}
				return v
			}
		}
		t.Fatalf("no value line in:\n%s", out)
		return 0
	}
	dv, fv := extract(dense.String()), extract(fast.String())
	if diff := dv - fv; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("truncated value %g diverges from dense %g", fv, dv)
	}
	// -states keeps the dense sweep (the listing needs every state).
	var listed bytes.Buffer
	if _, err := run([]string{"-model", "cluster:8", "-truncate", "1e-14", "-states", formula}, &listed); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(listed.String(), "not computed") {
		t.Errorf("-states should force the full sweep:\n%s", listed.String())
	}
	// An ineligible shape (S=? has no forward-sweep route) falls back with
	// a printed note rather than failing.
	var fallback bytes.Buffer
	if _, err := run([]string{"-model", "cluster:8", "-truncate", "1e-14", "S=? [ down ]"}, &fallback); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fallback.String(), "fast path does not apply") {
		t.Errorf("ineligible shape should print the fallback note:\n%s", fallback.String())
	}
	if !strings.Contains(fallback.String(), "value from the initial distribution:") {
		t.Errorf("fallback should still produce the value:\n%s", fallback.String())
	}
}

// TestRunRejectsInvalidTruncate pins the -truncate validation: a negative
// or non-finite threshold is an error naming the flag, not a silently
// disabled (or, for NaN, half-enabled) truncation.
func TestRunRejectsInvalidTruncate(t *testing.T) {
	for _, v := range []string{"-1", "-1e-14", "NaN", "Inf", "-Inf"} {
		var out bytes.Buffer
		code, err := run([]string{"-model", "cluster:2", "-truncate", v, "P<=0.9 [ !down U{t<=2} down ]"}, &out)
		if code != 1 || err == nil {
			t.Errorf("-truncate %s: code %d err %v, want 1 and an error", v, code, err)
			continue
		}
		if !strings.Contains(err.Error(), "-truncate") {
			t.Errorf("-truncate %s: error %q should name the flag", v, err)
		}
	}
	var out bytes.Buffer
	if code, err := run([]string{"-model", "cluster:2", "-truncate", "0", "P<=0.9 [ !down U{t<=2} down ]"}, &out); code != 0 || err != nil {
		t.Errorf("-truncate 0: code %d err %v, want the untruncated check", code, err)
	}
}

// TestRunRejectsInvalidEpsilon pins the -epsilon validation: an accuracy
// outside (0, 1) or not finite is an error naming the flag. NaN used to
// reach the Sericola truncation point as N = 0 and print 0 for Q3.
func TestRunRejectsInvalidEpsilon(t *testing.T) {
	path := writeStationModel(t)
	const formula = "P=? [ (call_idle | doze) U{t<=24, r<=550} call_initiated ]"
	for _, v := range []string{"NaN", "Inf", "-Inf", "0", "-1e-9", "1", "2"} {
		var out bytes.Buffer
		code, err := run([]string{"-model", path, "-epsilon", v, formula}, &out)
		if code != 1 || err == nil || !strings.Contains(err.Error(), "-epsilon") {
			t.Errorf("-epsilon %s: code %d err %v, want 1 and an error naming the flag", v, code, err)
		}
	}
}

// TestRunRejectsInvalidStep pins the -d validation and the discretisation
// grid cap: a negative or non-finite step is an error naming the flag, and
// a step or reward bound whose recursion grids or work exceed the caps
// fail with discretise.ErrGrid instead of panicking in makeslice or
// running for hours.
func TestRunRejectsInvalidStep(t *testing.T) {
	path := writeStationModel(t)
	const formula = "P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]"
	for _, v := range []string{"-1", "NaN", "Inf", "-Inf"} {
		var out bytes.Buffer
		code, err := run([]string{"-model", path, "-algorithm", "discretise", "-d", v, formula}, &out)
		if code != 1 || err == nil || !strings.Contains(err.Error(), "-d") {
			t.Errorf("-d %s: code %d err %v, want 1 and an error naming the flag", v, code, err)
		}
	}
	for _, tc := range []struct{ d, formula string }{
		{"1e-300", formula},
		{"0", "P=? [ (call_idle | doze) U{t<=24, r<=1e12} call_initiated ]"},
		{"0.03125", "P=? [ (call_idle | doze) U{t<=24, r<=500000} call_initiated ]"},
	} {
		var out bytes.Buffer
		code, err := run([]string{"-model", path, "-algorithm", "discretise", "-d", tc.d, tc.formula}, &out)
		if code != 1 || !errors.Is(err, discretise.ErrGrid) {
			t.Errorf("-d %s %s: code %d err %v, want 1 and ErrGrid", tc.d, tc.formula, code, err)
		}
	}
}

// TestRunRefusesOversizedSericola pins the Sericola size cap end to end: a
// reward-bounded until on cluster:60 whose occupation-time recursion would
// hold gigabytes and run for minutes exits with sericola.ErrTooLarge.
func TestRunRefusesOversizedSericola(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-model", "cluster:60", "P=? [ !down U{t<=96, r<=50} down ]"}, &out)
	if code != 1 || !errors.Is(err, sericola.ErrTooLarge) {
		t.Errorf("code %d err %v, want 1 and ErrTooLarge", code, err)
	}
}
