// Command bench is the checker's benchmark. It drives the checker through
// its public entry points only — a fresh core.Checker per one-shot query,
// as one csrlcheck run does, and service.Server behind a loopback HTTP
// listener, as csrld serves — checks every answer, and prints every metric
// by name with its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through bench/run.sh, which builds it
// inside the checkout:
//
//	bash bench/run.sh --workload csrld-sweep --seed 1 --seconds 25 --trace 0
//
// Without -workload every workload runs in turn. -trace reports the
// per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// workloads are the benchmark's workloads in the order BENCHMARK.json
// lists them; README.md says why each exists.
var workloads = []struct {
	name string
	run  func(config, []scenario) (*outcome, error)
}{
	{"station-p3", runOneShot},
	{"cluster-scale", runOneShot},
	{"csrld-sweep", runSweep},
	{"csrld-mixed", runMixed},
}

// config is one run's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	short   bool
}

// window is how long the run measures.
func (c config) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// setupReps is how often set-up is repeated; setup_s is the median.
func (c config) setupReps() int {
	if c.short {
		return 1
	}
	return 3
}

// minOps is the fewest closed-loop ops of each kind a run makes: a traced
// run needs a traced and an untraced one.
func (c config) minOps() int {
	if c.trace {
		return 2
	}
	return 1
}

// outcome is what one workload run measured.
type outcome struct {
	kinds     []string    // the mix's query kinds: its distinct formulas and checker options
	shares    []float64   // each kind's share of the mix, summing to 1
	latencies [][]float64 // ms per op, by kind: wall time (closed loop) or completion − due time (open loop)
	setups    []float64   // s per set-up repetition
	attempted int
	failed    int      // errors and wrong answers
	failures  []string // the first few, for the log
	layers    *layerSet
	late      []float64 // ms the open-loop generator ran behind schedule, per arrival
}

// newOutcome starts the outcome of a workload whose mix has these query
// kinds, each weights[k] times.
func newOutcome(kinds []string, weights []int) *outcome {
	return &outcome{kinds: kinds, shares: shares(weights), latencies: make([][]float64, len(kinds))}
}

// latencyMin is the headline latency: each kind's fastest op, weighted by
// its share of the mix. Every op of a kind does the same work, so the
// fastest is what that work costs when nothing else on the host competes
// for the core; the spread above it moves with the host's load, not with
// the program.
func (o *outcome) latencyMin() float64 { return mixQuantile(o.latencies, o.shares, 0) }

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// maxLateMS is the generator lateness p99 above which an open-loop run is
// marked invalid: its requests no longer went out on the seeded schedule.
// Latency still runs from the due times, so the delay is in the numbers.
const maxLateMS = 5.0

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all, in turn)")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 25, "length of the measured window")
	trace := fs.Bool("trace", false, "report the per-layer metrics instead of the end-to-end ones")
	short := fs.Bool("short", false, "one set-up instead of three (for tests)")
	if err := fs.Parse(joinBoolValues(args, "trace")); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload W] [-seed N] [-seconds S] [-trace]")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace, short: *short}
	all, err := parseScenarios(scenariosTxt)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *workload == "" {
		return runEach(args, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name == *workload {
			fmt.Fprintf(stdout, "# env %s\n", environment())
			if !runWorkload(stdout, stderr, cfg, w.name, w.run, scenariosFor(all, w.name)) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
	return 2
}

// runEach runs every workload in a process of its own, as a driver calling
// with -workload would, so no workload inherits another's heap or peak
// resident set.
func runEach(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// joinBoolValues rewrites "-name 0" and "-name 1" (with one or two dashes)
// as "-name=0" and "-name=1", so a boolean flag also takes the separate
// value the driver's calling convention passes.
func joinBoolValues(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// environment stamps what the numbers depend on: wall-clock times on this
// many CPUs, this Go and this revision.
func environment() string {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return fmt.Sprintf("num_cpu=%d GOMAXPROCS=%d go=%s revision=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runWorkload runs one workload and prints its metrics, then its result
// line. It reports whether the run was correct.
func runWorkload(stdout, stderr io.Writer, cfg config, name string, fn func(config, []scenario) (*outcome, error), rows []scenario) bool {
	fmt.Fprintf(stdout, "# workload %s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	if len(rows) == 0 {
		fmt.Fprintf(stderr, "bench: %s: no scenario rows\n", name)
		return false
	}
	out, err := fn(cfg, rows)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return false
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "bench: %s: %s\n", name, f)
	}
	var errs []error
	if out.failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d ops failed or answered wrongly", out.failed, out.attempted))
	}
	lateP99 := quantile(out.late, 0.99)
	for k, xs := range out.latencies {
		fmt.Fprintf(stdout, "# kind share=%.4f ops=%d min_ms=%.4f p10_ms=%.4f p50_ms=%.4f p90_ms=%.4f  %s\n",
			out.shares[k], len(xs), quantile(xs, 0), quantile(xs, 0.10), quantile(xs, 0.50), quantile(xs, 0.90), out.kinds[k])
	}
	fmt.Fprintf(stdout, "# ops=%d failed=%d error_ratio=%g latency_p50_ms=%.4f latency_p90_ms=%.4f gen_late_ms_p99=%.4f\n",
		out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)),
		mixQuantile(out.latencies, out.shares, 0.50), mixQuantile(out.latencies, out.shares, 0.90), lateP99)
	if lateP99 > maxLateMS {
		fmt.Fprintf(stdout, "# invalid: generator p99 lateness %.2f ms > %g ms\n", lateP99, maxLateMS)
		fmt.Fprintf(stderr, "bench: %s: run invalid, the generator ran %.2f ms behind schedule at p99\n", name, lateP99)
	}

	values := map[string]float64{}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		out.layers.set("gen.late_ms_p99", lateP99)
		var err error
		if values, err = out.layers.metrics(out.shares); err != nil {
			errs = append(errs, err)
		}
	} else {
		values["latency_min_ms"] = out.latencyMin()
		values["setup_s"] = median(out.setups)
		values["peak_rss_mib"] = peakRSSMiB()
	}
	res := result{Correct: len(errs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := values[d.name]
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-32s %14.6f %s\n", d.name, v, d.unit)
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return false
	}
	fmt.Fprintln(stdout, string(line))
	return res.Correct
}

// gcMark is the collector's state at the start of a measured window.
type gcMark struct {
	cycles  uint32
	pauseNs uint64
}

func markGC() gcMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcMark{ms.NumGC, ms.PauseTotalNs}
}

// record sets the collections and pause time since the mark.
func (g gcMark) record(l *layerSet) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.set("gc.cycles", float64(ms.NumGC-g.cycles))
	l.set("gc.pause_ms", float64(ms.PauseTotalNs-g.pauseNs)/1e6)
}

// peakRSSMiB is the process's peak resident set, as time(1) reports it.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
