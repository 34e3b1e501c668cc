// Command csrld runs the long-running CSRL checker service: models are
// uploaded once, parsed once, and checked many times by many concurrent
// clients over a shared checker whose memo keeps the uniformised matrices,
// Fox–Glynn tables and lump quotients warm across requests.
//
//	csrld -addr :8344
//	csrld -addr :8344 -preload cluster:64 -epsilon 1e-8 -truncate 1e-14
//	csrld -smoke
//
// The API (see internal/service and the README's service section):
//
//	POST /v1/models   upload a modelfile JSON; returns its fingerprint
//	GET  /v1/models   list registered models with memo statistics
//	POST /v1/check    {"model": fp, "formula": "..."} -> value/verdict,
//	                  per-request error ledger and Σ ≤ ε budget proof
//	GET  /v1/stats    service-wide request, batch and memo counters
//	GET  /healthz     liveness
//
// Numerical options are per deployment, not per request — batched
// requests must be exchangeable and results reproducible fleet-wide.
//
// -smoke runs the acceptance smoke against an in-process instance: upload
// the embedded station model, fire 8 concurrent queries, assert every
// response is a 200 carrying a passing budget proof and bitwise matches a
// one-shot direct checker, then repeat the wave and assert it was served
// from the memo (hits > 0, no new misses). Exit 0 on success.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/modelfile"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/service"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrld:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("csrld", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8344", "listen address")
		algorithm   = fs.String("algorithm", "sericola", "P3 procedure: sericola | erlang | discretise")
		epsilon     = fs.Float64("epsilon", 1e-9, "accuracy for uniformisation-based computations")
		k           = fs.Int("k", 256, "phase count for -algorithm erlang")
		d           = fs.Float64("d", 0, "step for -algorithm discretise (0 = automatic)")
		workers     = fs.Int("workers", 0, "worker goroutines for the numerical procedures (0 = GOMAXPROCS)")
		doLump      = fs.Bool("lump", true, "quotient models by formula-respecting lumpability before checking")
		truncate    = fs.Float64("truncate", 0, "drop states below this mass from forward transient sweeps (0 = off)")
		memoCap     = fs.Int("memo-cap", service.DefaultMemoCap, "per-table memo entries per model before LRU eviction")
		batchWindow = fs.Duration("batch-window", service.DefaultBatchWindow, "admission window for coalescing concurrent queries (negative = off)")
		maxModels   = fs.Int("max-models", service.DefaultMaxModels, "registry capacity")
		preload     = fs.String("preload", "", "comma-separated models to register at startup: modelfile paths or cluster:N")
		smoke       = fs.Bool("smoke", false, "run the in-process acceptance smoke and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: csrld [flags]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0, nil
		}
		return 1, err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 1, fmt.Errorf("csrld takes no positional arguments, got %d", fs.NArg())
	}

	if !(*epsilon > 0 && *epsilon < 1) {
		return 1, fmt.Errorf("-epsilon must be an accuracy in (0, 1), got %v", *epsilon)
	}
	if !(*truncate >= 0) || math.IsInf(*truncate, 1) {
		return 1, fmt.Errorf("-truncate must be a finite mass >= 0 (0 = off), got %v", *truncate)
	}
	if !(*d >= 0) || math.IsInf(*d, 1) {
		return 1, fmt.Errorf("-d must be a finite step >= 0 (0 = automatic), got %v", *d)
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

	svcOpts := service.Options{
		Checker:     opts,
		MemoCap:     *memoCap,
		BatchWindow: *batchWindow,
		MaxModels:   *maxModels,
	}
	if *smoke {
		return runSmoke(svcOpts, out)
	}
	srv, err := service.New(svcOpts)
	if err != nil {
		return 1, err
	}

	if *preload != "" {
		for _, spec := range strings.Split(*preload, ",") {
			spec = strings.TrimSpace(spec)
			m, err := loadModel(spec)
			if err != nil {
				return 1, fmt.Errorf("-preload %s: %w", spec, err)
			}
			fp, _, err := srv.Register(m)
			if err != nil {
				return 1, fmt.Errorf("-preload %s: %w", spec, err)
			}
			fmt.Fprintf(out, "preloaded %s: %d states, fingerprint %s\n", spec, m.N(), fp)
		}
	}

	fmt.Fprintf(out, "csrld listening on %s (epsilon %g, memo cap %d, batch window %v)\n",
		*addr, *epsilon, *memoCap, *batchWindow)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		return 1, err
	}
	return 0, nil
}

// loadModel resolves a model spec exactly as csrlcheck's -model flag: a
// cluster:N family instance or a modelfile JSON path.
func loadModel(spec string) (*mrm.MRM, error) {
	if rest, ok := strings.CutPrefix(spec, "cluster:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("cluster:N needs an integer N, got %q", rest)
		}
		if n < 1 {
			return nil, fmt.Errorf("cluster:N needs N >= 1 (workstations per side), got %d", n)
		}
		p, err := cluster.Default(n)
		if err != nil {
			return nil, err
		}
		return p.Build()
	}
	return modelfile.Load(spec)
}
