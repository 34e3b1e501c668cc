package main

import (
	"fmt"
	"sync"

	"github.com/performability/csrl/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run without -trace reports, on every workload.
var endToEnd = []metricDef{
	{"latency_min_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics a -trace run reports, on every workload; a
// layer the workload never reaches reads 0. README.md maps each to the
// end-to-end metric it should move.
var perLayer = []metricDef{
	{"logic.parse_us", "us"},
	{"srn.explore_s", "s"},
	{"srn.states", "count"},
	{"mrm.fingerprint_ms", "ms"},
	{"modelfile.encode_ms", "ms"},
	{"service.upload_ms", "ms"},
	{"lump.ms", "ms"},
	{"lump.share", "ratio"},
	{"lump.blocks_per_state", "ratio"},
	{"lump.declined", "count"},
	{"reduce.ms", "ms"},
	{"foxglynn.window", "count"},
	{"transient.uniformise_ms", "ms"},
	{"transient.sweep_ms", "ms"},
	{"transient.matrix_passes", "count"},
	{"transient.steady_detections", "count"},
	{"truncation.active_window", "count"},
	{"truncation.dropped_states", "count"},
	{"sparse.computed_bytes_per_pass", "bytes"},
	{"sparse.computed_gbps", "GB/s"},
	{"sericola.recursion_ms", "ms"},
	{"sericola.levels", "count"},
	{"sericola.bands", "count"},
	{"erlang.expand_ms", "ms"},
	{"erlang.states", "count"},
	{"discretise.recursion_ms", "ms"},
	{"discretise.grid", "count"},
	{"discretise.sources", "count"},
	{"core.other_ms", "ms"},
	{"memo.hit_ratio", "ratio"},
	{"memo.evictions", "count"},
	{"pool.reuse_ratio", "ratio"},
	{"pool.alloc_mb", "MB"},
	{"parallel.chunks", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"service.roundtrip_ms", "ms"},
	{"service.transport_ms", "ms"},
	{"service.admission_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.compute_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.response_bytes", "bytes"},
	{"service.batch_size_mean", "count"},
	{"service.coalesced_ratio", "ratio"},
	{"service.batches", "count"},
	{"gen.late_ms_p99", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// leafSpans are the program's spans that enclose no other span. core.sat
// and core.corner enclose them and are left out, so no time counts twice.
var leafSpans = []string{
	"core.lump", "core.reduce", "transient.uniformise", "transient.sweep",
	"sericola.recursion", "discretise.recursion",
}

func spanMS(rep *obs.Report, name string) float64 {
	return float64(rep.Spans[name].Nanos) / 1e6
}

// leafMS is the time of one report's leaf spans.
func leafMS(rep *obs.Report) float64 {
	var sum float64
	for _, name := range leafSpans {
		sum += spanMS(rep, name)
	}
	return sum
}

// reportLayers reads the per-layer values the program recorded for one
// operation in its numerics report.
func reportLayers(rep *obs.Report) map[string]float64 {
	c := func(name string) float64 { return float64(rep.Counters[name]) }
	g := func(name string) float64 { return rep.Gauges[name] }
	return map[string]float64{
		"lump.ms":                     spanMS(rep, "core.lump"),
		"lump.blocks_per_state":       ratio(g("lump.blocks"), g("lump.states")),
		"lump.declined":               c("lump.declined"),
		"reduce.ms":                   spanMS(rep, "core.reduce"),
		"foxglynn.window":             g("foxglynn.window"),
		"transient.uniformise_ms":     spanMS(rep, "transient.uniformise"),
		"transient.sweep_ms":          spanMS(rep, "transient.sweep"),
		"transient.matrix_passes":     c("sweep.products"),
		"transient.steady_detections": c("steady.detections"),
		"truncation.active_window":    g("truncation.active-window"),
		"truncation.dropped_states":   c("truncation.dropped-states"),
		"sericola.recursion_ms":       spanMS(rep, "sericola.recursion"),
		"sericola.levels":             g("sericola.levels"),
		"sericola.bands":              g("sericola.bands"),
		"discretise.recursion_ms":     spanMS(rep, "discretise.recursion"),
		"discretise.grid":             g("discretise.grid"),
		"discretise.sources":          c("discretise.sources"),
	}
}

// layerSet collects the per-layer metrics of one traced run. It is safe
// for concurrent use by the open-loop client workers.
type layerSet struct {
	mu       sync.Mutex
	perOp    []map[string][]float64 // guarded by mu; by kind, one value per traced op
	run      map[string]float64     // guarded by mu; values measured once per run
	leaf     float64                // guarded by mu; Σ leaf-layer ms over traced ops
	wall     float64                // guarded by mu; Σ wall ms over traced ops
	traced   [][]float64            // guarded by mu; by kind, latency of traced ops
	untraced [][]float64            // guarded by mu; by kind, latency of untraced ops
}

func newLayerSet(kinds int) *layerSet {
	perOp := make([]map[string][]float64, kinds)
	for k := range perOp {
		perOp[k] = make(map[string][]float64)
	}
	return &layerSet{perOp: perOp, run: make(map[string]float64),
		traced: make([][]float64, kinds), untraced: make([][]float64, kinds)}
}

// op records one traced operation of a kind: its layer values, the time
// its leaf layers account for and its wall time.
func (l *layerSet) op(kind int, values map[string]float64, leaf, wall float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range values {
		l.perOp[kind][k] = append(l.perOp[kind][k], v)
	}
	l.leaf += leaf
	l.wall += wall
}

// latency records an op's latency on the traced or untraced side of the
// overhead comparison.
func (l *layerSet) latency(kind int, traced bool, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if traced {
		l.traced[kind] = append(l.traced[kind], v)
	} else {
		l.untraced[kind] = append(l.untraced[kind], v)
	}
}

// set records a value measured once per run.
func (l *layerSet) set(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.run[name] = v
}

// metrics returns every per-layer metric, and an error when the leaf
// layers miss more than a tenth of the traced wall time or overlap. A
// per-op value is each kind's median weighted by the kind's share of the
// mix, as latency_min_ms weights the kinds; a kind whose ops never record
// a value counts as 0 for it.
func (l *layerSet) metrics(shares []float64) (map[string]float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		byKind := make([][]float64, len(l.perOp))
		for k, ops := range l.perOp {
			if len(l.traced[k]) == 0 {
				continue
			}
			if byKind[k] = ops[m.name]; byKind[k] == nil {
				byKind[k] = []float64{0}
			}
		}
		out[m.name] = mixQuantile(byKind, shares, 0.5)
	}
	for k, v := range l.run {
		out[k] = v
	}
	coverage := ratio(l.leaf, l.wall)
	out["trace.coverage"] = coverage
	out["trace.overhead_ratio"] = ratio(mixQuantile(l.traced, shares, 0.5), mixQuantile(l.untraced, shares, 0.5))
	if coverage < 0.90 || coverage > 1.02 {
		return out, fmt.Errorf("trace.coverage %.3f outside [0.90, 1.02]: the leaf layers miss time or overlap", coverage)
	}
	return out, nil
}
