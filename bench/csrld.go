package main

// The open-loop csrld workloads: a service.Server behind a loopback HTTP
// listener, fed on a seeded Poisson schedule by one generator and at most
// runtime.NumCPU() client connections. Latency runs from each request's due
// time, so a stall also delays the requests queued behind it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/modelfile"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/parallel"
	"github.com/performability/csrl/internal/service"
)

// Offered load. At these rates two cores are busy a fifth of the time or
// less, so a request seldom queues behind another and a slow spell of the
// host does not grow a backlog.
const (
	sweepPairsPerSecond = 8.0
	mixedPerSecond      = 36.0
)

// query is one concrete formula the generator can send, with the answer a
// fresh one-shot checker gives for it. Each query is a kind of the mix.
type query struct {
	model, formula string
	ref            answer
}

// runSweep sends pairs of same-skeleton P3 queries: one t, two different
// reward bounds, so the admission layer can coalesce each pair. The pairs
// cycle through every t and every pair of reward bounds.
func runSweep(cfg config, rows []scenario) (*outcome, error) {
	if len(rows) != 1 {
		return nil, fmt.Errorf("csrld-sweep needs one scenario row, has %d", len(rows))
	}
	sc := rows[0]
	nt, nr := len(strings.Split(sc.opts["t"], ",")), len(strings.Split(sc.opts["r"], ","))
	var queries []query
	for _, f := range sc.instances() {
		queries = append(queries, query{model: sc.model, formula: f})
	}
	// instances lists t-major: query ti·nr + ri has the ti-th t and ri-th r.
	var pairs [][]int
	for ti := 0; ti < nt; ti++ {
		for r1 := 0; r1 < nr; r1++ {
			for r2 := r1 + 1; r2 < nr; r2++ {
				pairs = append(pairs, []int{ti*nr + r1, ti*nr + r2})
			}
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("scenarios.txt:%d: a pair needs two reward bounds", sc.line)
	}
	mix := make([][]int, arrivals(sweepPairsPerSecond, cfg.window()))
	for i := range mix {
		mix[i] = pairs[i%len(pairs)]
	}
	return runOpenLoop(cfg, rows, queries, openLoopSchedule(cfg.seed, cfg.window(), mix))
}

// runMixed sends single requests, each row's weight percent of them,
// cycling through the row's formulas.
func runMixed(cfg config, rows []scenario) (*outcome, error) {
	n := arrivals(mixedPerSecond, cfg.window())
	var queries []query
	var mix [][]int
	total := 0
	for _, sc := range rows {
		w, err := sc.weight()
		if err != nil {
			return nil, err
		}
		total += w
		first := len(queries)
		inst := sc.instances()
		for _, f := range inst {
			queries = append(queries, query{model: sc.model, formula: f})
		}
		for i := 0; i < (n*w+50)/100; i++ {
			mix = append(mix, []int{first + i%len(inst)})
		}
	}
	if total != 100 {
		return nil, fmt.Errorf("csrld-mixed weights sum to %d, want 100", total)
	}
	return runOpenLoop(cfg, rows, queries, openLoopSchedule(cfg.seed, cfg.window(), mix))
}

// reqResult is one request's measurements, written by the client worker
// that sent it and read after all workers have finished.
type reqResult struct {
	query     int
	arrival   int     // index of the arrival that sent it
	id        string  // set on traced requests, for the handler clock
	latency   float64 // ms from due time to the last response byte
	roundtrip float64 // ms from send to the last response byte
	bytes     int
	resp      service.CheckResponse
	err       error
}

// runOpenLoop sends the rows' queries to csrld on the schedule. Each query
// is a kind of the mix, weighted by how often the schedule sends it.
func runOpenLoop(cfg config, rows []scenario, queries []query, sched []arrival) (*outcome, error) {
	// csrld fixes its numerical options per deployment, so the rows may
	// only vary the formula.
	var specs []string
	for _, sc := range rows {
		for k := range sc.opts {
			if k != "weight" && k != "t" && k != "r" {
				return nil, fmt.Errorf("scenarios.txt:%d: option %s: csrld options are per deployment", sc.line, k)
			}
		}
		if !slices.Contains(specs, sc.model) {
			specs = append(specs, sc.model)
		}
	}
	opts := core.DefaultOptions()

	// Reference answers come before the set-up clock, from the model as the
	// service decodes it, by one fresh checker per query.
	for _, spec := range specs {
		m, err := buildModel(spec)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := modelfile.Encode(&buf, m); err != nil {
			return nil, err
		}
		if m, err = modelfile.Decode(&buf); err != nil {
			return nil, err
		}
		for i, q := range queries {
			if q.model != spec {
				continue
			}
			s, err := oneShot(m, q.formula, opts, true)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", q.formula, err)
			}
			queries[i].ref = s.ans
		}
	}

	labels := make([]string, len(queries))
	for i, q := range queries {
		labels[i] = q.model + " " + q.formula
	}
	weights := make([]int, len(queries))
	for _, a := range sched {
		for _, q := range a.queries {
			weights[q]++
		}
	}
	out := newOutcome(labels, weights)
	var srv *csrld
	var timings []setupTiming
	for i := 0; i < cfg.setupReps(); i++ {
		if srv != nil {
			srv.close()
		}
		t0 := time.Now()
		var st setupTiming
		var err error
		if srv, st, err = startCsrld(specs, opts); err != nil {
			return nil, err
		}
		// One warm-up request per query kind.
		for _, q := range queries {
			if _, _, err := srv.send(q.model, q.formula, ""); err != nil {
				srv.close()
				return nil, fmt.Errorf("warm-up %s: %w", q.formula, err)
			}
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		timings = append(timings, st)
	}
	defer srv.close()

	sends := 0
	for _, a := range sched {
		sends += len(a.queries)
	}
	type job struct {
		query, idx, arrival int
		due                 time.Time
	}
	results := make([]reqResult, sends)
	jobs := make(chan job, sends)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		//lint:ignore goroutinemisuse open-loop client workers: one connection each, bounded by NumCPU, joined by wg.Wait below
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := &results[j.idx]
				r.query, r.arrival = j.query, j.arrival
				// Every other arrival is traced, all of its requests, so the
				// members of a pair are traced together.
				if cfg.trace && j.arrival%2 == 0 {
					r.id = strconv.Itoa(j.idx)
				}
				q := queries[j.query]
				var data []byte
				var rt time.Duration
				data, rt, r.err = srv.send(q.model, q.formula, r.id)
				r.latency, r.roundtrip, r.bytes = ms(time.Since(j.due)), ms(rt), len(data)
				if r.err == nil {
					r.err = json.Unmarshal(data, &r.resp)
				}
			}
		}()
	}

	before := srv.srv.Snapshot()
	chunks := parallel.ChunkCount()
	gc := markGC()
	start := time.Now()
	idx := 0
	for ai, a := range sched {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		out.late = append(out.late, ms(time.Since(due)))
		for _, q := range a.queries {
			jobs <- job{query: q, idx: idx, arrival: ai, due: due}
			idx++
		}
	}
	close(jobs)
	wg.Wait()
	after := srv.srv.Snapshot()

	for i, r := range results {
		out.attempted++
		out.latencies[r.query] = append(out.latencies[r.query], r.latency)
		if r.err != nil {
			out.fail("request %d: %v", i, r.err)
			continue
		}
		if err := checkResponse(r.resp, queries[r.query].ref); err != nil {
			out.fail("request %d (%s): %v", i, queries[r.query].formula, err)
		}
	}
	if cfg.trace {
		out.layers = newLayerSet(len(queries))
		gc.record(out.layers)
		out.layers.set("parallel.chunks", ratio(float64(parallel.ChunkCount()-chunks), float64(sends)))
		if err := serviceLayers(out.layers, srv, queries, results, timings, before, after); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkResponse compares a csrld answer bit for bit with the one-shot
// reference and requires the response's Σ ≤ ε budget proof.
func checkResponse(resp service.CheckResponse, ref answer) error {
	if !resp.BudgetOK {
		return fmt.Errorf("budget_ok is false")
	}
	if ref.query {
		if resp.Value == nil {
			return fmt.Errorf("no value")
		}
		if math.Float64bits(*resp.Value) != math.Float64bits(ref.value) {
			return fmt.Errorf("value %v, one-shot checker %v", *resp.Value, ref.value)
		}
		return nil
	}
	if resp.Holds == nil || resp.Satisfying == nil {
		return fmt.Errorf("no verdict")
	}
	if *resp.Holds != ref.holds || *resp.Satisfying != ref.sat {
		return fmt.Errorf("verdict %v with %d satisfying states, one-shot checker %v with %d", *resp.Holds, *resp.Satisfying, ref.holds, ref.sat)
	}
	return nil
}

// serviceLayers fills the per-layer metrics of a traced csrld run.
func serviceLayers(l *layerSet, srv *csrld, queries []query, results []reqResult, timings []setupTiming, before, after service.Stats) error {
	var explore, fingerprint, encode, upload []float64
	for _, st := range timings {
		explore = append(explore, st.explore.Seconds())
		fingerprint = append(fingerprint, ms(st.fingerprint))
		encode = append(encode, ms(st.encode))
		upload = append(upload, ms(st.upload))
	}
	l.set("srn.explore_s", median(explore))
	l.set("srn.states", float64(timings[0].states))
	l.set("mrm.fingerprint_ms", median(fingerprint))
	l.set("modelfile.encode_ms", median(encode))
	l.set("service.upload_ms", median(upload))

	memo := func(s service.Stats) (hits, misses, evictions float64) {
		for _, m := range s.Models {
			hits += float64(m.Memo.Hits)
			misses += float64(m.Memo.Misses)
			evictions += float64(m.Memo.Evictions)
		}
		return
	}
	h0, m0, e0 := memo(before)
	h1, m1, e1 := memo(after)
	l.set("memo.hit_ratio", ratio(h1-h0, h1-h0+m1-m0))
	l.set("memo.evictions", e1-e0)
	l.set("service.batches", float64(after.Batches-before.Batches))
	l.set("service.coalesced_ratio", ratio(float64(after.Coalesced-before.Coalesced), float64(after.Requests-before.Requests)))

	// An admitted request waits in the admission window until its group
	// fires, the window after the group's first member reached the handler.
	// The first member of a coalesced arrival is its earliest handler start.
	handlers := make(map[string]handlerTime)
	firstStart := make(map[int]time.Time)
	for _, r := range results {
		if r.id == "" || r.err != nil {
			continue
		}
		h, ok := srv.clock.get(r.id)
		if !ok {
			return fmt.Errorf("no handler time for traced request %s", r.id)
		}
		handlers[r.id] = h
		if f, seen := firstStart[r.arrival]; r.resp.BatchSize > 1 && (!seen || h.start.Before(f)) {
			firstStart[r.arrival] = h.start
		}
	}

	// The reports carry the shared checkers' cumulative pool counters;
	// their spread over the run is the run's pool traffic.
	pool := newPoolSpread()
	var batched, batchSum float64
	for _, r := range results {
		if r.err != nil || r.resp.Report == nil {
			continue
		}
		pool.add(r.resp.Model, r.resp.Report.Gauges)
		if r.resp.BatchSize > 0 {
			batched++
			batchSum += float64(r.resp.BatchSize)
		}
		l.latency(r.query, r.id != "", r.latency)
		if r.id == "" {
			continue
		}
		h := handlers[r.id]
		var admission float64
		if r.resp.BatchSize > 0 {
			first, ok := firstStart[r.arrival]
			if r.resp.BatchSize == 1 || !ok {
				first = h.start
			}
			admission = math.Max(0, ms(service.DefaultBatchWindow-h.start.Sub(first)))
		}
		t0 := time.Now()
		if _, err := logic.Parse(queries[r.query].formula); err != nil {
			return err
		}
		parse := ms(time.Since(t0))
		// The service encodes its response as indented JSON; replay that.
		t0 = time.Now()
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.resp); err != nil {
			return err
		}
		encode := ms(time.Since(t0))
		compute := leafMS(r.resp.Report)
		transport := r.roundtrip - ms(h.d)
		vals := reportLayers(r.resp.Report)
		vals["logic.parse_us"] = parse * 1e3
		vals["lump.share"] = ratio(vals["lump.ms"], r.roundtrip)
		vals["service.roundtrip_ms"] = r.roundtrip
		vals["service.transport_ms"] = transport
		vals["service.admission_ms"] = admission
		vals["service.encode_ms"] = encode
		vals["service.compute_ms"] = compute
		vals["service.overhead_ms"] = r.roundtrip - compute
		vals["service.response_bytes"] = float64(r.bytes)
		leaf := transport + admission + compute + parse + encode
		vals["core.other_ms"] = r.roundtrip - leaf
		l.op(r.query, vals, leaf, r.roundtrip)
	}
	gets, reuses, alloc := pool.delta()
	l.set("pool.reuse_ratio", ratio(reuses, gets))
	l.set("pool.alloc_mb", ratio(alloc/1e6, float64(len(results))))
	l.set("service.batch_size_mean", ratio(batchSum, batched))
	return nil
}

// poolSpread tracks, per model, the lowest and highest cumulative pool
// counters seen in the responses.
type poolSpread struct {
	lo, hi map[string][3]float64
}

var poolGauges = [3]string{"pool.gets", "pool.reuses", "pool.alloc_bytes"}

func newPoolSpread() *poolSpread {
	return &poolSpread{lo: map[string][3]float64{}, hi: map[string][3]float64{}}
}

func (p *poolSpread) add(model string, gauges map[string]float64) {
	lo, seen := p.lo[model]
	hi := p.hi[model]
	for i, name := range poolGauges {
		v := gauges[name]
		if !seen || v < lo[i] {
			lo[i] = v
		}
		if v > hi[i] {
			hi[i] = v
		}
	}
	p.lo[model], p.hi[model] = lo, hi
}

func (p *poolSpread) delta() (gets, reuses, alloc float64) {
	models := make([]string, 0, len(p.hi))
	for model := range p.hi {
		models = append(models, model)
	}
	sort.Strings(models)
	for _, model := range models {
		lo, hi := p.lo[model], p.hi[model]
		gets += hi[0] - lo[0]
		reuses += hi[1] - lo[1]
		alloc += hi[2] - lo[2]
	}
	return
}

// setupTiming splits one csrld set-up by layer.
type setupTiming struct {
	explore, fingerprint, encode, upload time.Duration
	states                               int
}

// csrld is one running service with its client.
type csrld struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	fps    map[string]string // model spec -> fingerprint
	clock  *handlerClock
}

// requestIDHeader tags a traced request so the handler clock can time it.
const requestIDHeader = "X-Bench-Request"

// handlerClock times the service's handler for tagged requests, from a
// wrapper around the handler the listener serves.
type handlerClock struct {
	mu    sync.Mutex
	times map[string]handlerTime // guarded by mu; keyed by request ID
}

type handlerTime struct {
	start time.Time
	d     time.Duration
}

func (h *handlerClock) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		h.mu.Lock()
		h.times[id] = handlerTime{start: t0, d: d}
		h.mu.Unlock()
	})
}

// get returns when the handler started on a tagged request and how long
// it ran.
func (h *handlerClock) get(id string) (handlerTime, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t, ok := h.times[id]
	return t, ok
}

// startCsrld explores the models, starts a service on a loopback listener
// and uploads the models to it.
func startCsrld(specs []string, opts core.Options) (*csrld, setupTiming, error) {
	var st setupTiming
	models := make([]*mrm.MRM, len(specs))
	for i, spec := range specs {
		t0 := time.Now()
		m, err := buildModel(spec)
		if err != nil {
			return nil, st, err
		}
		st.explore += time.Since(t0)
		st.states += m.N()
		models[i] = m
	}
	srv, err := service.New(service.Options{Checker: opts})
	if err != nil {
		return nil, st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, st, err
	}
	n := runtime.NumCPU()
	c := &csrld{
		srv:    srv,
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}},
		fps:    make(map[string]string),
		clock:  &handlerClock{times: make(map[string]handlerTime)},
	}
	c.hs = &http.Server{Handler: c.clock.wrap(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	//lint:ignore goroutinemisuse the listener's serve loop; close stops it and waits for it to return
	go func() { c.served <- c.hs.Serve(ln) }()

	for i, m := range models {
		t0 := time.Now()
		fp := m.Fingerprint()
		st.fingerprint += time.Since(t0)
		t0 = time.Now()
		var buf bytes.Buffer
		if err := modelfile.Encode(&buf, m); err != nil {
			c.close()
			return nil, st, err
		}
		st.encode += time.Since(t0)
		t0 = time.Now()
		got, err := c.upload(&buf)
		if err != nil {
			c.close()
			return nil, st, fmt.Errorf("upload %s: %w", specs[i], err)
		}
		st.upload += time.Since(t0)
		if got != fp {
			c.close()
			return nil, st, fmt.Errorf("upload %s: fingerprint %s, want %s", specs[i], got, fp)
		}
		c.fps[specs[i]] = fp
	}
	return c, st, nil
}

func (c *csrld) upload(body io.Reader) (string, error) {
	resp, err := c.client.Post(c.base+"/v1/models", "application/json", body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var info service.ModelInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return "", err
	}
	return info.Fingerprint, nil
}

// send posts one check and returns the response body and the round trip
// to its last byte. A non-empty id tags the request for the handler clock.
func (c *csrld) send(spec, formula, id string) ([]byte, time.Duration, error) {
	body, err := json.Marshal(service.CheckRequest{Model: c.fps[spec], Formula: formula})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/check", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	rt := time.Since(t0)
	if err != nil {
		return nil, rt, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, rt, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return data, rt, nil
}

// close stops the listener and waits for its serve loop to return.
func (c *csrld) close() {
	_ = c.hs.Close() // only fails closing the listener, which Serve's return covers
	<-c.served
	c.client.CloseIdleConnections()
}
