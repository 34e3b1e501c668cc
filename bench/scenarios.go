package main

import (
	_ "embed"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/mrm"
)

//go:embed scenarios.txt
var scenariosTxt string

// scenario is one row of scenarios.txt.
type scenario struct {
	workload, model, formula string
	opts                     map[string]string
	expect                   expectation
	line                     int
}

// expectation is the parsed expected column.
type expectation struct {
	kind  string // "value", "holds" or "oneshot"
	value float64
	tol   float64
	holds bool
}

var knownOptions = map[string]bool{
	"p3": true, "k": true, "d": true, "epsilon": true, "truncate": true,
	"weight": true, "t": true, "r": true,
}

// parseScenarios reads the scenario table and rejects malformed rows and
// rows sharing a model and bounded formula whose pinned verdicts differ.
func parseScenarios(src string) ([]scenario, error) {
	var out []scenario
	verdicts := make(map[string]bool)
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ";")
		if len(fields) != 5 {
			return nil, fmt.Errorf("scenarios.txt:%d: %d fields, want 5", i+1, len(fields))
		}
		sc := scenario{
			workload: strings.TrimSpace(fields[0]),
			model:    strings.TrimSpace(fields[1]),
			formula:  strings.TrimSpace(fields[2]),
			opts:     make(map[string]string),
			line:     i + 1,
		}
		for _, kv := range strings.Fields(fields[3]) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok || !knownOptions[k] {
				return nil, fmt.Errorf("scenarios.txt:%d: bad option %q", sc.line, kv)
			}
			sc.opts[k] = v
		}
		exp, err := parseExpectation(strings.TrimSpace(fields[4]))
		if err != nil {
			return nil, fmt.Errorf("scenarios.txt:%d: %w", sc.line, err)
		}
		sc.expect = exp
		if exp.kind == "holds" {
			key := sc.model + ";" + sc.formula
			if prev, seen := verdicts[key]; seen && prev != exp.holds {
				return nil, fmt.Errorf("scenarios.txt:%d: verdict disagrees with an earlier row on the same model and formula", sc.line)
			}
			verdicts[key] = exp.holds
		}
		out = append(out, sc)
	}
	return out, nil
}

func parseExpectation(s string) (expectation, error) {
	if s == "oneshot" {
		return expectation{kind: s}, nil
	}
	if v, ok := strings.CutPrefix(s, "holds="); ok {
		b, err := strconv.ParseBool(v)
		return expectation{kind: "holds", holds: b}, err
	}
	var e expectation
	for _, kv := range strings.Fields(s) {
		k, v, _ := strings.Cut(kv, "=")
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return e, fmt.Errorf("expected %q: %w", s, err)
		}
		switch k {
		case "value":
			e.kind, e.value = "value", x
		case "tol":
			e.tol = x
		default:
			return e, fmt.Errorf("unknown expectation %q", kv)
		}
	}
	if e.kind != "value" || e.tol <= 0 {
		return e, fmt.Errorf("expected %q: want value=V tol=T, holds=B or oneshot", s)
	}
	return e, nil
}

// check compares an answer with a pinned expectation; "oneshot" rows are
// checked against a reference answer instead.
func (e expectation) check(a answer) error {
	switch e.kind {
	case "value":
		if !a.query || math.Abs(a.value-e.value) > e.tol {
			return fmt.Errorf("value %.10f, pinned %.8f ± %g", a.value, e.value, e.tol)
		}
	case "holds":
		if a.query || a.holds != e.holds {
			return fmt.Errorf("verdict %v, pinned %v", a.holds, e.holds)
		}
	}
	return nil
}

// scenariosFor returns the rows of one workload.
func scenariosFor(all []scenario, workload string) []scenario {
	var out []scenario
	for _, sc := range all {
		if sc.workload == workload {
			out = append(out, sc)
		}
	}
	return out
}

// checkerOptions is the configuration of csrlcheck and csrld with their
// default flags, changed by the row's options.
func (sc scenario) checkerOptions() (core.Options, error) {
	opts := core.DefaultOptions()
	for k, v := range sc.opts {
		var err error
		switch k {
		case "p3":
			switch v {
			case "sericola":
				opts.P3 = core.AlgSericola
			case "erlang":
				opts.P3 = core.AlgErlang
			case "discretise":
				opts.P3 = core.AlgDiscretise
			default:
				err = fmt.Errorf("unknown procedure %q", v)
			}
		case "k":
			opts.ErlangK, err = strconv.Atoi(v)
		case "d":
			opts.DiscretiseStep, err = strconv.ParseFloat(v, 64)
		case "epsilon":
			opts.Epsilon, err = strconv.ParseFloat(v, 64)
		case "truncate":
			opts.Truncate, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return opts, fmt.Errorf("scenarios.txt:%d: option %s: %w", sc.line, k, err)
		}
	}
	return opts, nil
}

// label names a closed-loop row's query kind: its model, formula and
// checker options.
func (sc scenario) label() string {
	var opts []string
	for k, v := range sc.opts {
		if k != "weight" {
			opts = append(opts, k+"="+v)
		}
	}
	sort.Strings(opts)
	return strings.Join(append([]string{sc.model, sc.formula}, opts...), " ")
}

// weight is the row's share of its mix: checks per round in a closed
// loop, percent of the arrivals in an open loop (1 when unset).
func (sc scenario) weight() (int, error) {
	v, ok := sc.opts["weight"]
	if !ok {
		return 1, nil
	}
	w, err := strconv.Atoi(v)
	if err != nil || w < 1 {
		return 0, fmt.Errorf("scenarios.txt:%d: weight %q", sc.line, v)
	}
	return w, nil
}

// instances expands the $t and $r placeholders over every combination of
// the t= and r= lists.
func (sc scenario) instances() []string {
	out := []string{sc.formula}
	for _, key := range []string{"t", "r"} {
		vals := strings.Split(sc.opts[key], ",")
		if !strings.Contains(sc.formula, "$"+key) {
			continue
		}
		var next []string
		for _, f := range out {
			for _, v := range vals {
				next = append(next, strings.ReplaceAll(f, "$"+key, v))
			}
		}
		out = next
	}
	return out
}

// buildModel explores a model spec's SRN: the station model or a cluster
// family instance.
func buildModel(spec string) (*mrm.MRM, error) {
	if spec == "station" {
		return adhoc.Model()
	}
	rest, ok := strings.CutPrefix(spec, "cluster:")
	if !ok {
		return nil, fmt.Errorf("unknown model %q", spec)
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return nil, fmt.Errorf("model %q: %w", spec, err)
	}
	p, err := cluster.Default(n)
	if err != nil {
		return nil, err
	}
	return p.Build()
}
