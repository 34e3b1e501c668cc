// Command csrlcheck model-checks a CSRL formula over a Markov reward model
// stored in the JSON format of internal/modelfile:
//
//	csrlcheck -model station.json 'P>0.5 [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]'
//	csrlcheck -model station.json -algorithm erlang -k 512 'P=? [ F{r<=600} call_incoming ]'
//	csrlcheck -model station.json -states 'S>=0.9 [ call_idle ]'
//	csrlcheck -model cluster:224 -truncate 1e-14 'P<=0.021 [ !down U{t<=96} down ]'
//
// The -model argument is either a JSON file path or cluster:N, which
// generates the parametric workstation-cluster instance with N stations
// per side (2·(N+1)² states) on the fly. For bounded formulas it prints
// the satisfying states and whether the model's initial distribution
// satisfies the formula; for P=? / S=? query formulas it prints the
// numeric value per state.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/modelfile"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrlcheck:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// loadModel resolves the -model argument: a cluster:N family instance or a
// modelfile JSON path.
func loadModel(spec string) (*mrm.MRM, error) {
	if rest, ok := strings.CutPrefix(spec, "cluster:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("-model cluster:N needs an integer N, got %q", rest)
		}
		if n < 1 {
			return nil, fmt.Errorf("-model cluster:N needs N >= 1 (workstations per side), got %d", n)
		}
		p, err := cluster.Default(n)
		if err != nil {
			return nil, err
		}
		return p.Build()
	}
	return modelfile.Load(spec)
}

// run returns the process exit code: 0 when the formula holds (or for
// query formulas), 2 when a bounded formula does not hold.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("csrlcheck", flag.ContinueOnError)
	var (
		modelPath = fs.String("model", "", "model JSON file, or cluster:N for the parametric workstation cluster (required)")
		algorithm = fs.String("algorithm", "sericola", "P3 procedure: sericola | erlang | discretise")
		epsilon   = fs.Float64("epsilon", 1e-9, "accuracy for uniformisation-based computations")
		k         = fs.Int("k", 256, "phase count for -algorithm erlang")
		d         = fs.Float64("d", 0, "step for -algorithm discretise (0 = automatic)")
		workers   = fs.Int("workers", 0, "worker goroutines for the numerical procedures (0 = GOMAXPROCS, 1 = sequential)")
		states    = fs.Bool("states", false, "list every state with its verdict/value")
		doLump    = fs.Bool("lump", true, "quotient the model by formula-respecting lumpability before checking (automatic pre-pass)")
		truncate  = fs.Float64("truncate", 0, "drop states below this mass from the forward transient sweeps; the dropped mass is charged to the error ledger (0 = off). A top-level time-bounded P-until over propositional operands is then checked from the initial states alone: no lump pre-pass, and only the rows the sweep window reaches are read")
		stats     = fs.Bool("stats", false, "print the numerics report: error-budget ledger, counters and spans")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: csrlcheck -model FILE [flags] FORMULA\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h/-help is a successful invocation that asked for usage (the
			// FlagSet already printed it), not a tool failure: exit 0 with
			// no "csrlcheck: flag: help requested" noise on stderr.
			return 0, nil
		}
		return 1, err
	}
	if *modelPath == "" {
		fs.Usage()
		return 1, fmt.Errorf("-model is required")
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 1, fmt.Errorf("exactly one formula argument expected, got %d", fs.NArg())
	}
	formulaSrc := fs.Arg(0)
	if !(*epsilon > 0 && *epsilon < 1) {
		return 1, fmt.Errorf("-epsilon must be an accuracy in (0, 1), got %v", *epsilon)
	}
	if !(*truncate >= 0) || math.IsInf(*truncate, 1) {
		return 1, fmt.Errorf("-truncate must be a finite mass >= 0 (0 = off), got %v", *truncate)
	}
	if !(*d >= 0) || math.IsInf(*d, 1) {
		return 1, fmt.Errorf("-d must be a finite step >= 0 (0 = automatic), got %v", *d)
	}

	m, err := loadModel(*modelPath)
	if err != nil {
		return 1, err
	}
	formula, err := logic.Parse(formulaSrc)
	if err != nil {
		return 1, err
	}
	opts := core.DefaultOptions()
	opts.Epsilon = *epsilon
	opts.ErlangK = *k
	opts.DiscretiseStep = *d
	opts.Workers = *workers
	opts.Truncate = *truncate
	if !*doLump {
		opts.Lump = core.LumpOff
	}
	switch strings.ToLower(*algorithm) {
	case "sericola", "occupation-time":
		opts.P3 = core.AlgSericola
	case "erlang", "pseudo-erlang":
		opts.P3 = core.AlgErlang
	case "discretise", "discretisation", "tijms-veldman":
		opts.P3 = core.AlgDiscretise
	default:
		return 1, fmt.Errorf("unknown algorithm %q", *algorithm)
	}
	if *stats {
		opts.Obs = obs.New()
	}
	checker := core.New(m, opts)

	fmt.Fprintf(out, "model:   %s (%d states)\n", *modelPath, m.N())
	fmt.Fprintf(out, "formula: %s\n", formula)

	// printStats emits the numerics report after the check so the ledger
	// covers every procedure the formula actually exercised; no-op unless
	// -stats armed a recorder.
	printStats := func() {
		if rep := checker.NumericsReport(); rep != nil {
			fmt.Fprint(out, rep.Format())
		}
	}

	if isQuery(formula) {
		// With truncation on, the initial-distribution value can come from
		// truncated forward sweeps alone; the dense all-states Values sweep
		// would defeat the truncation the flag asked for. The per-state
		// listing still needs the full sweep, so -states opts out.
		if *truncate > 0 && !*states {
			initVal, ok, err := checker.QueryInitial(formula)
			if err != nil {
				return 1, err
			}
			if ok {
				fmt.Fprintf(out, "value from the initial distribution: %0.10f\n", initVal)
				fmt.Fprintf(out, "per-state values: not computed (truncated run; pass -states to force the full sweep)\n")
				printStats()
				return 0, nil
			}
			fmt.Fprintf(out, "note: -truncate fast path does not apply to this formula shape; falling back to the dense all-states sweep\n")
		}
		vals, err := checker.Values(formula)
		if err != nil {
			return 1, err
		}
		var initVal float64
		for s, p := range m.InitView() {
			initVal += p * vals[s]
		}
		fmt.Fprintf(out, "value from the initial distribution: %0.10f\n", initVal)
		if *states {
			for s, v := range vals {
				fmt.Fprintf(out, "  %-30s %0.10f\n", m.Name(s), v)
			}
		}
		printStats()
		return 0, nil
	}

	// With truncation on, Check can answer for the initial states by
	// forward sweeps over the active window alone; the full satisfying-state
	// listing would force the dense all-states computation truncation is
	// there to avoid, so it is only produced when -states demands it.
	if *truncate > 0 && !*states {
		holds, err := checker.Check(formula)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(out, "satisfying states: not computed (truncated run; pass -states to force the full sweep)\n")
		fmt.Fprintf(out, "holds in the initial state(s): %v\n", holds)
		printStats()
		if !holds {
			return 2, nil
		}
		return 0, nil
	}

	sat, err := checker.Sat(formula)
	if err != nil {
		return 1, err
	}
	holds, err := checker.Check(formula)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(out, "satisfying states: %d of %d\n", sat.Len(), m.N())
	if *states {
		for s := 0; s < m.N(); s++ {
			verdict := "no"
			if sat.Contains(s) {
				verdict = "YES"
			}
			fmt.Fprintf(out, "  %-30s %s\n", m.Name(s), verdict)
		}
	}
	fmt.Fprintf(out, "holds in the initial state(s): %v\n", holds)
	printStats()
	if !holds {
		// Distinguish "property fails" (2) from tool failure (1).
		return 2, nil
	}
	return 0, nil
}

func isQuery(f logic.StateFormula) bool {
	switch t := f.(type) {
	case logic.Prob:
		return t.Query
	case logic.Steady:
		return t.Query
	default:
		return false
	}
}
