package main

// The -json / -baseline modes give the repository a machine-readable
// performance trail: -json re-times the paper's procedures with
// testing.Benchmark (ns/op, allocs/op, B/op per procedure and knob) and
// writes a BENCH_PR7.json-style report; -baseline compares a fresh run
// against a stored report and fails loudly on regressions, so CI can keep
// the goal-column slicing, steady-state detection, pooling and the
// multi-vector block kernels honest. Reports carry the recording machine's
// num_cpu and -baseline refuses to compare across CPU counts.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/discretise"
	"github.com/performability/csrl/internal/erlang"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/sericola"
	"github.com/performability/csrl/internal/sparse"
	"github.com/performability/csrl/internal/transient"
)

// Regression thresholds for -baseline: a workload may not get more than 20%
// slower or allocate more than 10% more per op than the stored report.
const (
	timeRegressionFactor  = 1.20
	allocRegressionFactor = 1.10
	// allocSlack ignores regressions below this absolute allocs/op level:
	// ratios of tiny counts (3 vs 2 allocations) are noise, not regressions.
	allocSlack = 16
	// memoHitRateSlack is the tolerated absolute drop of the stats
	// workload's memo hit-rate below the baseline. The workload is
	// deterministic, so any real drop means the corner evaluations stopped
	// sharing reductions or weight tables; the slack only absorbs future
	// intentional memo-key changes that shift the rate by a count or two.
	memoHitRateSlack = 0.05
)

type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type benchReport struct {
	Generated string        `json:"generated"`
	GoVersion string        `json:"go_version"`
	NumCPU    int           `json:"num_cpu"`
	Records   []benchRecord `json:"records"`
	Stats     *benchStats   `json:"stats,omitempty"`
	Block     *blockStats   `json:"block,omitempty"`
}

// blockStats records the matrix-pass contrast of the multi-vector kernels:
// one backward sweep of g weighting vectors through the block path versus g
// single-vector sweeps, counted by the sweep.products instrument with
// steady-state detection off so both counts are structural (block = one
// pass per uniformisation step, vector = g per step). The block count must
// be strictly lower — that reduction in val/col traffic is the point of the
// batched kernels, so losing it is a hard failure of the -json run, not a
// threshold judgement.
type blockStats struct {
	G            int   `json:"g"`
	PassesBlock  int64 `json:"matrix_passes_block"`
	PassesVector int64 `json:"matrix_passes_vector"`
}

// benchStats is the observability cross-section of the performance trail:
// the paper's Q3 query evaluated statsRuns times on ONE checker with a
// recorder armed. The first evaluation populates the memo (reduction,
// uniformised matrix, Poisson weights); the repeats must hit it, so the
// cumulative hit-rate is a deterministic number for this workload and a
// drop against the stored baseline means the corner evaluations stopped
// sharing intermediates. The budget fields snapshot the FIRST evaluation
// only — the ledger sums per-call truncation charges, so the ≤ ε proof is
// a per-check statement, not a per-process one.
type benchStats struct {
	Query       string  `json:"query"`
	Runs        int     `json:"runs"`
	Epsilon     float64 `json:"epsilon"`
	BudgetTotal float64 `json:"budget_total"`
	BudgetOK    bool    `json:"budget_ok"`
	MemoHits    int64   `json:"memo_hits"`
	MemoMisses  int64   `json:"memo_misses"`
	MemoHitRate float64 `json:"memo_hit_rate"`
	PoolGets    int64   `json:"pool_gets"`
	PoolReuses  int64   `json:"pool_reuses"`
}

const (
	statsQuery = "P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]"
	statsRuns  = 3
)

// collectStats runs the fixed stats workload and reduces the numerics
// report to the benchStats record.
func collectStats(workers int) (*benchStats, error) {
	m, err := adhoc.Model()
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Workers = workers
	opts.Obs = obs.New()
	checker := core.New(m, opts)
	formula := logic.MustParse(statsQuery)

	st := &benchStats{Query: statsQuery, Runs: statsRuns, Epsilon: opts.Epsilon}
	for i := 0; i < statsRuns; i++ {
		if _, err := checker.Values(formula); err != nil {
			return nil, err
		}
		if i == 0 {
			rep := checker.NumericsReport()
			st.BudgetTotal = rep.BudgetTotal
			st.BudgetOK = rep.BudgetOK
		}
	}
	rep := checker.NumericsReport()
	hits, misses := rep.Gauges["memo.hits"], rep.Gauges["memo.misses"]
	st.MemoHits, st.MemoMisses = int64(hits), int64(misses)
	if total := hits + misses; total > 0 {
		st.MemoHitRate = hits / total
	}
	st.PoolGets = int64(rep.Gauges["pool.gets"])
	st.PoolReuses = int64(rep.Gauges["pool.reuses"])
	return st, nil
}

// blockWeightVecs builds the deterministic g=4 weighting-vector set the
// block workloads sweep: the goal indicator (ReachProbAll's input) plus
// three fixed ramps.
func blockWeightVecs(m *mrm.MRM, goal *mrm.StateSet) [][]float64 {
	n := m.N()
	vs := make([][]float64, 4)
	vs[0] = make([]float64, n)
	goal.Each(func(s int) { vs[0][s] = 1 })
	for j := 1; j < len(vs); j++ {
		vs[j] = make([]float64, n)
		for i := range vs[j] {
			vs[j][i] = float64((i*j+1)%5) / 4
		}
	}
	return vs
}

// collectBlockStats measures the blockStats record on the Q3 reduction.
func collectBlockStats(m *mrm.MRM, goal *mrm.StateSet, workers int) (*blockStats, error) {
	tb := adhoc.Q3TimeBound
	vs := blockWeightVecs(m, goal)
	recBlock := obs.New()
	_, err := transient.BackwardWeightedMulti(m, vs, tb, transient.Options{
		Epsilon: 1e-12, Workers: workers, SteadyDetect: transient.SteadyOff, Obs: recBlock,
	})
	if err != nil {
		return nil, err
	}
	recVec := obs.New()
	for _, v := range vs {
		if _, err := transient.BackwardWeighted(m, v, tb, transient.Options{
			Epsilon: 1e-12, Workers: workers, SteadyDetect: transient.SteadyOff, Obs: recVec,
		}); err != nil {
			return nil, err
		}
	}
	return &blockStats{
		G:            len(vs),
		PassesBlock:  recBlock.Report(1e-12).Counters["sweep.products"],
		PassesVector: recVec.Report(1e-12).Counters["sweep.products"],
	}, nil
}

type benchWorkload struct {
	name string
	fn   func(b *testing.B)
}

// workloads assembles the benchmark matrix: each of the paper's procedures
// with the PR's knobs contrasted — goal-column slicing + pooling against
// the historical full-width unpooled path, and steady-state detection on
// against off. The "/sliced-pooled" vs "/fullwidth-unpooled" pair under
// Table2Sericola is the acceptance contrast (≥2× time, ≥4× allocs).
func workloads(m *mrm.MRM, goal *mrm.StateSet, workers int) []benchWorkload {
	tb, rb := adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound
	pool := sparse.NewVecPool()
	var list []benchWorkload
	add := func(name string, fn func() error) {
		list = append(list, benchWorkload{name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		}})
	}

	for _, eps := range []float64{1e-4, 1e-8} {
		eps := eps
		add(fmt.Sprintf("Table2Sericola/eps=%.0e/sliced-pooled", eps), func() error {
			_, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{
				Epsilon: eps, Lambda: adhoc.PaperLambda, Workers: workers, Pool: pool,
			})
			return err
		})
		add(fmt.Sprintf("Table2Sericola/eps=%.0e/fullwidth-unpooled", eps), func() error {
			_, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{
				Epsilon: eps, Lambda: adhoc.PaperLambda, Workers: workers, FullWidth: true,
			})
			return err
		})
	}

	// The multi-vector contrast pairs: g bounds (or weighting vectors)
	// advanced together through the block kernels against g runs of the
	// one-vector path. The batched side reads the matrix once per level
	// instead of g times.
	batchRs := []float64{150, 350, rb, 700}
	add("Table2SericolaBatch/g=4/batched", func() error {
		_, err := sericola.ReachProbBatch(m, goal, tb, batchRs, sericola.Options{
			Epsilon: 1e-8, Lambda: adhoc.PaperLambda, Workers: workers, Pool: pool,
		})
		return err
	})
	add("Table2SericolaBatch/g=4/individual", func() error {
		for _, r := range batchRs {
			if _, err := sericola.ReachProbAll(m, goal, tb, r, sericola.Options{
				Epsilon: 1e-8, Lambda: adhoc.PaperLambda, Workers: workers, Pool: pool,
			}); err != nil {
				return err
			}
		}
		return nil
	})
	weightVs := blockWeightVecs(m, goal)
	add("TransientBackward/g=4/block", func() error {
		_, err := transient.BackwardWeightedMulti(m, weightVs, tb, transient.Options{
			Epsilon: 1e-12, Workers: workers, Pool: pool,
		})
		return err
	})
	add("TransientBackward/g=4/vector", func() error {
		for _, v := range weightVs {
			if _, err := transient.BackwardWeighted(m, v, tb, transient.Options{
				Epsilon: 1e-12, Workers: workers, Pool: pool,
			}); err != nil {
				return err
			}
		}
		return nil
	})

	for _, steady := range []struct {
		label string
		mode  transient.SteadyMode
	}{{"on", transient.SteadyAuto}, {"off", transient.SteadyOff}} {
		steady := steady
		add("TransientReach/t=24/steady="+steady.label, func() error {
			_, err := transient.ReachProbAll(m, goal, tb, transient.Options{
				Epsilon: 1e-12, Workers: workers, SteadyDetect: steady.mode, Pool: pool,
			})
			return err
		})
		add("Table3Erlang/k=256/steady="+steady.label, func() error {
			_, err := erlang.ReachProbAll(m, goal, tb, rb, erlang.Options{
				K: 256,
				Transient: transient.Options{
					Epsilon: 1e-12, Workers: workers, SteadyDetect: steady.mode, Pool: pool,
				},
			})
			return err
		})
	}

	add("Table4Discretise/d=1over32/pooled", func() error {
		_, err := discretise.ReachProb(m, goal, tb, rb, m.InitialState(), discretise.Options{
			D: 1.0 / 32, Workers: workers, Pool: pool,
		})
		return err
	})
	add("Table4Discretise/d=1over32/unpooled", func() error {
		_, err := discretise.ReachProb(m, goal, tb, rb, m.InitialState(), discretise.Options{
			D: 1.0 / 32, Workers: workers,
		})
		return err
	})
	return list
}

// benchJSON runs the workload matrix, writes the report to jsonPath (when
// non-empty) and compares against baselinePath (when non-empty), returning
// an error that lists every regression beyond the thresholds. With sweep
// set, the matrix additionally times the parallel workloads at Workers ∈
// {1,2,4,8} so the report carries speedup curves for the stamped num_cpu.
func benchJSON(w io.Writer, m *mrm.MRM, goal *mrm.StateSet, jsonPath, baselinePath string, workers int, sweep bool) error {
	report := benchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	matrix := workloads(m, goal, workers)
	fmt.Fprintf(w, "Benchmark matrix (procedure × knob), %d workloads\n\n", len(matrix))
	fmt.Fprintf(w, "  %-44s %14s %12s %12s\n", "workload", "ns/op", "allocs/op", "B/op")
	for _, wl := range matrix {
		r := testing.Benchmark(wl.fn)
		rec := benchRecord{
			Name:        wl.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		report.Records = append(report.Records, rec)
		fmt.Fprintf(w, "  %-44s %14.0f %12d %12d\n", rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
	}
	fmt.Fprintln(w)

	if sweep {
		fmt.Fprintf(w, "Workers sweep (num_cpu=%d)\n\n", report.NumCPU)
		fmt.Fprintf(w, "  %-44s %14s %10s\n", "workload", "ns/op", "speedup")
		for _, sw := range []struct {
			name string
			fn   func(wk int) error
		}{
			{"Table2SericolaBatch/g=4", func(wk int) error {
				_, err := sericola.ReachProbBatch(m, goal, adhoc.Q3TimeBound,
					[]float64{150, 350, adhoc.Q3PaperRewardBound, 700}, sericola.Options{
						Epsilon: 1e-8, Lambda: adhoc.PaperLambda, Workers: wk,
					})
				return err
			}},
			{"TransientBackward/g=4", func(wk int) error {
				_, err := transient.BackwardWeightedMulti(m, blockWeightVecs(m, goal),
					adhoc.Q3TimeBound, transient.Options{Epsilon: 1e-12, Workers: wk})
				return err
			}},
		} {
			var base float64
			for _, wk := range []int{1, 2, 4, 8} {
				wk, fn := wk, sw.fn
				r := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := fn(wk); err != nil {
							b.Fatal(err)
						}
					}
				})
				rec := benchRecord{
					Name:        fmt.Sprintf("WorkersSweep/%s/workers=%d", sw.name, wk),
					NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
					AllocsPerOp: r.AllocsPerOp(),
					BytesPerOp:  r.AllocedBytesPerOp(),
				}
				report.Records = append(report.Records, rec)
				if wk == 1 {
					base = rec.NsPerOp
				}
				fmt.Fprintf(w, "  %-44s %14.0f %9.2fx\n", rec.Name, rec.NsPerOp, base/rec.NsPerOp)
			}
		}
		fmt.Fprintln(w)
	}

	stats, err := collectStats(workers)
	if err != nil {
		return err
	}
	report.Stats = stats
	fmt.Fprintf(w, "Observability workload (%d× %s)\n\n", stats.Runs, stats.Query)
	fmt.Fprintf(w, "  error budget: %.3g <= eps %.0e: %v\n", stats.BudgetTotal, stats.Epsilon, stats.BudgetOK)
	fmt.Fprintf(w, "  memo: %d hits / %d misses (hit-rate %.3f)\n", stats.MemoHits, stats.MemoMisses, stats.MemoHitRate)
	fmt.Fprintf(w, "  pool: %d gets, %d reuses\n\n", stats.PoolGets, stats.PoolReuses)

	block, err := collectBlockStats(m, goal, workers)
	if err != nil {
		return err
	}
	report.Block = block
	fmt.Fprintf(w, "Block kernel matrix passes (backward sweep, g=%d): %d block vs %d vector (×%.2f fewer)\n\n",
		block.G, block.PassesBlock, block.PassesVector, float64(block.PassesVector)/float64(block.PassesBlock))
	if block.PassesBlock >= block.PassesVector {
		return fmt.Errorf("block kernel did not reduce matrix passes: %d block vs %d vector", block.PassesBlock, block.PassesVector)
	}

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		encErr := enc.Encode(report)
		if closeErr := f.Close(); encErr == nil {
			encErr = closeErr
		}
		if encErr != nil {
			return encErr
		}
		fmt.Fprintf(w, "wrote %d benchmark records to %s\n", len(report.Records), jsonPath)
	}
	if baselinePath != "" {
		return compareBaseline(w, report, baselinePath)
	}
	return nil
}

// compareBaseline checks the fresh report against a stored one, record by
// record (matched by name; workloads missing on either side are reported
// but not fatal), and fails on >20% time or >10% alloc regressions.
func compareBaseline(w io.Writer, report benchReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	// Benchmark baselines are per CPU count: speedup curves and parallel
	// timings from a machine with a different core count are not comparable
	// numbers, so refusing loudly beats reporting phantom regressions.
	if base.NumCPU != report.NumCPU {
		return fmt.Errorf("baseline %s was recorded with num_cpu=%d but this run has num_cpu=%d — baselines are per CPU count; regenerate the baseline on this machine (make bench-smoke) or compare on a matching one",
			path, base.NumCPU, report.NumCPU)
	}
	baseByName := make(map[string]benchRecord, len(base.Records))
	for _, r := range base.Records {
		baseByName[r.Name] = r
	}
	var regressions []string
	fmt.Fprintf(w, "Baseline comparison against %s\n\n", path)
	for _, rec := range report.Records {
		old, ok := baseByName[rec.Name]
		if !ok {
			fmt.Fprintf(w, "  %-44s new workload, no baseline\n", rec.Name)
			continue
		}
		delete(baseByName, rec.Name)
		timeRatio := rec.NsPerOp / old.NsPerOp
		fmt.Fprintf(w, "  %-44s time ×%.2f  allocs %d → %d\n", rec.Name, timeRatio, old.AllocsPerOp, rec.AllocsPerOp)
		if timeRatio > timeRegressionFactor {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (×%.2f > ×%.2f)", rec.Name, rec.NsPerOp, old.NsPerOp, timeRatio, timeRegressionFactor))
		}
		if rec.AllocsPerOp > allocSlack && float64(rec.AllocsPerOp) > allocRegressionFactor*float64(old.AllocsPerOp) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d allocs/op vs baseline %d (> ×%.2f)", rec.Name, rec.AllocsPerOp, old.AllocsPerOp, allocRegressionFactor))
		}
	}
	leftover := make([]string, 0, len(baseByName))
	for name := range baseByName {
		leftover = append(leftover, name)
	}
	sort.Strings(leftover)
	for _, name := range leftover {
		fmt.Fprintf(w, "  %-44s present in baseline only\n", name)
	}
	fmt.Fprintln(w)
	// The memo hit-rate of the deterministic stats workload is part of the
	// contract: the repeats of the Q3 query must keep hitting the cached
	// reduction and weight tables, and a single failed check must never
	// silently regress the error-budget proof.
	if base.Stats != nil && report.Stats != nil {
		fmt.Fprintf(w, "  %-44s hit-rate %.3f vs baseline %.3f\n", "stats/memo", report.Stats.MemoHitRate, base.Stats.MemoHitRate)
		if report.Stats.MemoHitRate < base.Stats.MemoHitRate-memoHitRateSlack {
			regressions = append(regressions,
				fmt.Sprintf("stats: memo hit-rate %.3f vs baseline %.3f (drop > %.2f)",
					report.Stats.MemoHitRate, base.Stats.MemoHitRate, memoHitRateSlack))
		}
		if base.Stats.BudgetOK && !report.Stats.BudgetOK {
			regressions = append(regressions,
				fmt.Sprintf("stats: error budget %.3g no longer within eps %.0e",
					report.Stats.BudgetTotal, report.Stats.Epsilon))
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(w, "  REGRESSION:", r)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(regressions), path)
	}
	fmt.Fprintln(w, "  no regressions beyond thresholds")
	return nil
}
