package main

// The closed-loop workloads: one client runs one csrlcheck-shaped query at
// a time — parse, a fresh checker, Values or Check — so every op pays the
// cold memo, the lump pre-pass and the numerical procedure, as one
// csrlcheck run does.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/erlang"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/parallel"
)

// answer is what one check returns: the initial-distribution value of a
// P=?/S=? query, or the verdict of a bounded formula together with the size
// of its satisfaction set when that was asked for.
type answer struct {
	query bool
	value float64
	holds bool
	sat   int
}

// same reports bitwise equality.
func (a answer) same(b answer) bool {
	return a.query == b.query && math.Float64bits(a.value) == math.Float64bits(b.value) &&
		a.holds == b.holds && a.sat == b.sat
}

// shot is one one-shot check with its parse time and, when the options
// carry a recorder, its numerics report.
type shot struct {
	ans   answer
	parse time.Duration
	rep   *obs.Report
}

// oneShot checks a formula with a fresh checker. withSat also counts the
// satisfaction set of a bounded formula, as csrld reports it.
func oneShot(m *mrm.MRM, formula string, opts core.Options, withSat bool) (shot, error) {
	t0 := time.Now()
	f, err := logic.Parse(formula)
	parse := time.Since(t0)
	if err != nil {
		return shot{}, err
	}
	c := core.New(m, opts)
	var a answer
	if isQuery(f) {
		vals, err := c.Values(f)
		if err != nil {
			return shot{}, err
		}
		a = answer{query: true, value: initialValue(m, vals)}
	} else {
		if a.holds, err = c.Check(f); err != nil {
			return shot{}, err
		}
		if withSat {
			sat, err := c.Sat(f)
			if err != nil {
				return shot{}, err
			}
			a.sat = sat.Len()
		}
	}
	return shot{ans: a, parse: parse, rep: c.NumericsReport()}, nil
}

func isQuery(f logic.StateFormula) bool {
	switch t := f.(type) {
	case logic.Prob:
		return t.Query
	case logic.Steady:
		return t.Query
	}
	return false
}

// initialValue is Σ α(s)·vals[s] in state order, as csrlcheck and csrld
// compute it.
func initialValue(m *mrm.MRM, vals []float64) float64 {
	var total float64
	for s, alpha := range m.InitView() {
		total += alpha * vals[s]
	}
	return total
}

// checkKind is one query kind of a closed loop: a scenario row with its
// checker options and the reference answer every timed check must repeat.
type checkKind struct {
	sc      scenario
	opts    core.Options
	ref     answer
	outside outsideLayers
}

// runOneShot is the closed loop of the station-p3 and cluster-scale
// workloads: one client runs rounds of one-shot checks, each row's weight
// checks a round, in an order the seed shuffles every round.
func runOneShot(cfg config, rows []scenario) (*outcome, error) {
	models := make(map[string]*mrm.MRM)
	var specs []string
	kinds := make([]checkKind, len(rows))
	weights := make([]int, len(rows))
	labels := make([]string, len(rows))
	for i, sc := range rows {
		opts, err := sc.checkerOptions()
		if err != nil {
			return nil, err
		}
		if weights[i], err = sc.weight(); err != nil {
			return nil, err
		}
		if models[sc.model] == nil {
			if models[sc.model], err = buildModel(sc.model); err != nil {
				return nil, err
			}
			specs = append(specs, sc.model)
		}
		// The reference answers come before the set-up clock: each must
		// match its pin, and every timed check must repeat it bit for bit.
		ref, err := oneShot(models[sc.model], sc.formula, opts, false)
		if err != nil {
			return nil, err
		}
		if err := sc.expect.check(ref.ans); err != nil {
			return nil, fmt.Errorf("scenarios.txt:%d: reference answer: %w", sc.line, err)
		}
		kinds[i] = checkKind{sc: sc, opts: opts, ref: ref.ans}
		labels[i] = sc.label()
	}

	out := newOutcome(labels, weights)
	var explore []float64
	for rep := 0; rep < cfg.setupReps(); rep++ {
		t0 := time.Now()
		for _, spec := range specs {
			var err error
			if models[spec], err = buildModel(spec); err != nil {
				return nil, err
			}
		}
		explore = append(explore, time.Since(t0).Seconds())
		for _, k := range kinds {
			if _, err := oneShot(models[k.sc.model], k.sc.formula, k.opts, false); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}

	if cfg.trace {
		out.layers = newLayerSet(len(kinds))
		out.layers.set("srn.explore_s", median(explore))
		states := 0
		for _, spec := range specs {
			states += models[spec].N()
		}
		out.layers.set("srn.states", float64(states))
		for i := range kinds {
			k := &kinds[i]
			var err error
			if k.outside, err = newOutsideLayers(models[k.sc.model], k.sc.formula, k.opts); err != nil {
				return nil, err
			}
		}
	}

	rng := rand.New(rand.NewPCG(cfg.seed, 0x6f6e6573686f74)) // stream "oneshot"
	var round []int
	for k, w := range weights {
		for j := 0; j < w; j++ {
			round = append(round, k)
		}
	}
	var start time.Time
	done := func() bool {
		if time.Since(start) < cfg.window() {
			return false
		}
		for _, xs := range out.latencies {
			if len(xs) < cfg.minOps() {
				return false
			}
		}
		return true
	}
	gc := markGC()
	start = time.Now()
	for !done() {
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, ki := range round {
			if done() {
				break
			}
			if err := checkOnce(cfg, out, ki, kinds[ki], models[kinds[ki].sc.model]); err != nil {
				return nil, err
			}
		}
	}
	if cfg.trace {
		gc.record(out.layers)
	}
	return out, nil
}

// checkOnce times one one-shot check of a kind, compares its answer with
// the reference and, on every other check of the kind in a traced run,
// records its layers.
func checkOnce(cfg config, out *outcome, ki int, k checkKind, m *mrm.MRM) error {
	n := len(out.latencies[ki])
	traced := cfg.trace && n%2 == 0
	o := k.opts
	if traced {
		o.Obs = obs.New()
	}
	chunks := parallel.ChunkCount()
	t0 := time.Now()
	res, err := oneShot(m, k.sc.formula, o, false)
	wall := ms(time.Since(t0))
	out.attempted++
	out.latencies[ki] = append(out.latencies[ki], wall)
	switch {
	case err != nil:
		out.fail("%s op %d: %v", out.kinds[ki], n, err)
		return nil
	case !res.ans.same(k.ref):
		out.fail("%s op %d: answer %+v differs from the reference %+v", out.kinds[ki], n, res.ans, k.ref)
	}
	if !cfg.trace {
		return nil
	}
	out.layers.latency(ki, traced, wall)
	if !traced {
		return nil
	}
	vals := reportLayers(res.rep)
	vals["logic.parse_us"] = float64(res.parse.Nanoseconds()) / 1e3
	vals["parallel.chunks"] = float64(parallel.ChunkCount() - chunks)
	addMemoPool(vals, res.rep)
	leaf := leafMS(res.rep) + ms(res.parse)
	if k.outside.expand != nil {
		d, states, err := k.outside.expand()
		if err != nil {
			return err
		}
		vals["erlang.expand_ms"] = ms(d)
		vals["erlang.states"] = float64(states)
		leaf += ms(d)
	}
	if k.outside.bytesPerPass > 0 {
		vals["sparse.computed_bytes_per_pass"] = k.outside.bytesPerPass
		sweepS := vals["transient.sweep_ms"] / 1e3
		vals["sparse.computed_gbps"] = ratio(k.outside.bytesPerPass*vals["transient.matrix_passes"], sweepS) / 1e9
	}
	vals["lump.share"] = ratio(vals["lump.ms"], wall)
	vals["core.other_ms"] = wall - leaf
	out.layers.op(ki, vals, leaf, wall)
	return nil
}

// addMemoPool adds the memo and vector-pool ratios of a fresh checker's
// report.
func addMemoPool(vals map[string]float64, rep *obs.Report) {
	g := rep.Gauges
	vals["memo.hit_ratio"] = ratio(g["memo.hits"], g["memo.hits"]+g["memo.misses"])
	vals["memo.evictions"] = g["memo.evictions"]
	vals["pool.reuse_ratio"] = ratio(g["pool.reuses"], g["pool.gets"])
	vals["pool.alloc_mb"] = g["pool.alloc_bytes"] / 1e6
}

// outsideLayers measures, from outside the program, the layers its spans
// do not cover: the Erlang-k expansion, timed by calling erlang.Expand on
// the same reduced model, and the bytes one dense matrix pass reads,
// computed from the array sizes of the swept matrix.
type outsideLayers struct {
	expand       func() (time.Duration, int, error)
	bytesPerPass float64
}

// newOutsideLayers prepares the outside measurements for a formula: the
// expansion for a pseudo-Erlang P3 query, and the computed bytes per pass
// of the matrix a dense sweep runs over (the Erlang expansion, or the
// absorbing model of a time-bounded until on the lump quotient).
func newOutsideLayers(m *mrm.MRM, formula string, opts core.Options) (outsideLayers, error) {
	var out outsideLayers
	f, err := logic.Parse(formula)
	if err != nil {
		return out, err
	}
	p, ok := f.(logic.Prob)
	if !ok {
		return out, nil
	}
	u, ok := p.Path.(logic.Until)
	if !ok {
		return out, nil
	}
	model := m
	if opts.Lump != core.LumpOff {
		atoms := append(logic.Atoms(u.Left), logic.Atoms(u.Right)...)
		q, err := lump.QuotientRespecting(m, atoms)
		if err != nil {
			return out, err
		}
		if q.Model.N() < m.N() {
			model = q.Model
		}
	}
	sets := core.New(model, core.Options{Lump: core.LumpOff})
	phi, err := sets.Sat(u.Left)
	if err != nil {
		return out, err
	}
	psi, err := sets.Sat(u.Right)
	if err != nil {
		return out, err
	}
	var swept *mrm.MRM
	switch {
	case opts.P3 == core.AlgErlang && !u.Reward.IsUnbounded():
		red, err := mrm.ReduceForUntil(model, phi, psi)
		if err != nil {
			return out, err
		}
		out.expand = func() (time.Duration, int, error) {
			t0 := time.Now()
			e, err := erlang.Expand(red.Model, u.Reward.Hi, opts.ErlangK)
			if err != nil {
				return 0, 0, err
			}
			return time.Since(t0), e.Model.N(), nil
		}
		e, err := erlang.Expand(red.Model, u.Reward.Hi, opts.ErlangK)
		if err != nil {
			return out, err
		}
		swept = e.Model
	case u.Reward.IsUnbounded() && !u.Time.IsUnbounded() && opts.Truncate == 0:
		// The P1 procedure sweeps the model with Ψ and ¬(Φ∨Ψ) absorbing.
		if swept, err = model.MakeAbsorbing(phi.Union(psi).Complement().Union(psi), false); err != nil {
			return out, err
		}
	default:
		return out, nil
	}
	pm, err := swept.Uniformised(swept.UniformisationRate())
	if err != nil {
		return out, err
	}
	// CSR values and int column indices (16 bytes per entry), row pointers
	// and the two state vectors (24 bytes per state).
	out.bytesPerPass = float64(16*pm.NNZ() + 24*pm.Dim())
	return out, nil
}
