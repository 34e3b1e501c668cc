package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/modelfile"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/sericola"
)

// newTestServer starts an httptest server over a fresh Server with the
// given batch window and returns it with the uploaded station model's
// fingerprint.
func newTestServer(t *testing.T, window time.Duration) (*Server, *httptest.Server, *mrm.MRM, string) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Epsilon = 1e-7
	s, err := New(Options{Checker: opts, BatchWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	m, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	return s, ts, m, upload(t, ts.URL, m)
}

// upload posts m to the server at url, checks that it was newly created
// under its local fingerprint, and returns that fingerprint.
func upload(t *testing.T, url string, m *mrm.MRM) string {
	t.Helper()
	var buf bytes.Buffer
	if err := modelfile.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/models", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Fingerprint != m.Fingerprint() {
		t.Fatalf("upload fingerprint %s != local %s", info.Fingerprint, m.Fingerprint())
	}
	if !info.Created {
		t.Fatal("first upload should report created")
	}
	return info.Fingerprint
}

func postCheck(t *testing.T, url string, req CheckRequest) (int, CheckResponse, apiError) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr apiError
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return resp.StatusCode, CheckResponse{}, apiErr
	}
	var out CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, apiError{}
}

func TestUploadIdempotentByFingerprint(t *testing.T) {
	_, ts, m, fp := newTestServer(t, -1)

	// Re-encode and re-upload: a different byte stream (fresh JSON
	// marshalling) must land on the same registry entry.
	var buf bytes.Buffer
	if err := modelfile.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/models", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-upload: status %d, want 200", resp.StatusCode)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Created {
		t.Fatal("re-upload must not create a second entry")
	}
	if info.Fingerprint != fp {
		t.Fatalf("re-upload fingerprint %s != %s", info.Fingerprint, fp)
	}
	if info.Uploads != 2 {
		t.Fatalf("uploads = %d, want 2", info.Uploads)
	}

	list, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var models []ModelInfo
	if err := json.NewDecoder(list.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 {
		t.Fatalf("registry lists %d models, want 1", len(models))
	}
}

// TestCheckMatchesDirectChecker pins the service answers bitwise to a
// direct core.Checker run with the same options — the "identical to the
// one-shot CLI" guarantee, across batched and unbatched code paths.
func TestCheckMatchesDirectChecker(t *testing.T) {
	_, ts, m, fp := newTestServer(t, -1)

	opts := core.DefaultOptions()
	opts.Epsilon = 1e-7
	direct := core.New(m, opts)

	cases := []struct {
		formula string
		query   bool
	}{
		// Batchable shape: doubly bounded until.
		{"P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]", true},
		{"P>=0.1 [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]", false},
		// Unbatchable shapes: time-only until, steady query, boolean.
		{"P=? [ !call_incoming U{t<=12} call_incoming ]", true},
		{"S=? [ doze ]", true},
		{"call_idle | call_incoming", false},
	}
	for _, tc := range cases {
		status, got, apiErr := postCheck(t, ts.URL, CheckRequest{Model: fp, Formula: tc.formula, States: true})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.formula, status, apiErr.Error)
		}
		if got.Report == nil {
			t.Fatalf("%s: response carries no numerics report", tc.formula)
		}
		if !got.BudgetOK {
			t.Fatalf("%s: budget proof failed: total %g", tc.formula, got.Report.BudgetTotal)
		}
		f := logic.MustParse(tc.formula)
		if tc.query {
			vals, err := direct.Values(f)
			if err != nil {
				t.Fatal(err)
			}
			var want float64
			for s, alpha := range m.InitView() {
				want += alpha * vals[s]
			}
			if got.Value == nil {
				t.Fatalf("%s: no value in query response", tc.formula)
			}
			if fmt.Sprintf("%x", *got.Value) != fmt.Sprintf("%x", want) {
				t.Fatalf("%s: service value %v != direct %v", tc.formula, *got.Value, want)
			}
			if fmt.Sprintf("%x", got.Values) != fmt.Sprintf("%x", vals) {
				t.Fatalf("%s: per-state values diverge from direct checker", tc.formula)
			}
		} else {
			sat, err := direct.Sat(f)
			if err != nil {
				t.Fatal(err)
			}
			holds, err := direct.Check(f)
			if err != nil {
				t.Fatal(err)
			}
			if got.Holds == nil || *got.Holds != holds {
				t.Fatalf("%s: service holds %v != direct %v", tc.formula, got.Holds, holds)
			}
			if got.Satisfying == nil || *got.Satisfying != sat.Len() {
				t.Fatalf("%s: service satisfying %v != direct %d", tc.formula, got.Satisfying, sat.Len())
			}
			for i, v := range got.Verdicts {
				if v != sat.Contains(i) {
					t.Fatalf("%s: verdict for state %d diverges", tc.formula, i)
				}
			}
		}
	}
}

// TestConcurrentRequestsCoalesceAndStayDisjoint is the service-level
// acceptance check: concurrent queries against one model coalesce into a
// batch, every response carries its own budget proof, answers are bitwise
// those of sequential one-at-a-time runs, and a second identical wave is
// served from the memo without new misses.
func TestConcurrentRequestsCoalesceAndStayDisjoint(t *testing.T) {
	// A generous window so that 8 goroutines firing together land in one
	// group even on a loaded CI machine.
	s, ts, m, fp := newTestServer(t, 200*time.Millisecond)

	rewards := []float64{100, 200, 300, 400, 500, 600, 700, 800}
	formula := func(r float64) string {
		return fmt.Sprintf("P=? [ (call_idle | doze) U{t<=24, r<=%g} call_initiated ]", r)
	}

	// Sequential baseline, direct checker (fresh per call: no shared memo
	// effects in the expectation).
	opts := core.DefaultOptions()
	opts.Epsilon = 1e-7
	want := make(map[float64]float64)
	for _, r := range rewards {
		direct := core.New(m, opts)
		vals, err := direct.Values(logic.MustParse(formula(r)))
		if err != nil {
			t.Fatal(err)
		}
		var v float64
		for st, alpha := range m.InitView() {
			v += alpha * vals[st]
		}
		want[r] = v
	}

	wave := func(assertBatched bool) (maxHits, maxMisses int64) {
		var wg sync.WaitGroup
		results := make([]CheckResponse, len(rewards))
		errs := make([]string, len(rewards))
		for i, r := range rewards {
			wg.Add(1)
			go func(i int, r float64) {
				defer wg.Done()
				status, resp, apiErr := postCheck(t, ts.URL, CheckRequest{Model: fp, Formula: formula(r)})
				if status != http.StatusOK {
					errs[i] = fmt.Sprintf("status %d: %s", status, apiErr.Error)
					return
				}
				results[i] = resp
			}(i, r)
		}
		wg.Wait()
		sawBatch := false
		for i, r := range rewards {
			if errs[i] != "" {
				t.Fatalf("r=%g: %s", r, errs[i])
			}
			resp := results[i]
			if resp.Value == nil {
				t.Fatalf("r=%g: no value", r)
			}
			if fmt.Sprintf("%x", *resp.Value) != fmt.Sprintf("%x", want[r]) {
				t.Fatalf("r=%g: concurrent value %v != sequential %v", r, *resp.Value, want[r])
			}
			if !resp.BudgetOK {
				t.Fatalf("r=%g: budget proof failed", r)
			}
			if resp.Batched {
				sawBatch = true
			}
			if resp.Memo.Hits > maxHits {
				maxHits = resp.Memo.Hits
			}
			if resp.Memo.Misses > maxMisses {
				maxMisses = resp.Memo.Misses
			}
		}
		if assertBatched && !sawBatch {
			t.Fatal("no request reports being batched despite a 200ms window and 8 concurrent companions")
		}
		return maxHits, maxMisses
	}

	_, misses1 := wave(true)
	hits2, misses2 := wave(false)

	// The second wave re-runs the identical queries: every uniformisation,
	// Fox–Glynn table and lump quotient is already memoised, so hits climb
	// and no new misses appear — the no-re-uniformisation guarantee.
	if hits2 == 0 {
		t.Fatal("second wave reports zero memo hits")
	}
	if misses2 != misses1 {
		t.Fatalf("second wave added memo misses: %d -> %d", misses1, misses2)
	}

	st := s.Snapshot()
	if st.Batches == 0 {
		t.Fatal("stats report zero batches fired")
	}
	if st.MaxBatch < 2 {
		t.Fatalf("stats report max batch %d, want >= 2", st.MaxBatch)
	}
	if st.Requests != int64(2*len(rewards)) {
		t.Fatalf("stats report %d requests, want %d", st.Requests, 2*len(rewards))
	}
}

// TestBatchedLedgerIsShared pins the documented ledger semantics of a
// batch: members share the computation, so they share one report whose
// budget holds for each of them.
func TestBatchedLedgerIsShared(t *testing.T) {
	m, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Epsilon = 1e-7
	b := newBatcher(core.New(m, opts), 100*time.Millisecond)

	f := logic.MustParse("P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]").(logic.Prob)
	u := f.Path.(logic.Until)
	u2 := u
	u2.Reward = logic.UpTo(300)

	var wg sync.WaitGroup
	var r1, r2 batchResult
	wg.Add(2)
	go func() { defer wg.Done(); r1, _ = b.admit(f, u) }()
	go func() { defer wg.Done(); r2, _ = b.admit(f, u2) }()
	wg.Wait()

	if r1.err != nil || r2.err != nil {
		t.Fatalf("batch errors: %v / %v", r1.err, r2.err)
	}
	if r1.size != 2 || r2.size != 2 {
		t.Fatalf("batch sizes %d/%d, want 2/2", r1.size, r2.size)
	}
	if r1.report != r2.report {
		t.Fatal("batch members must share the group's report")
	}
	if !r1.report.BudgetOK {
		t.Fatal("group budget proof failed")
	}
	if fmt.Sprintf("%x", r1.vals) == fmt.Sprintf("%x", r2.vals) {
		t.Fatal("different reward bounds produced identical columns")
	}
}

// TestPerRequestLedgersAreDisjoint runs unbatched requests concurrently
// and asserts each response's ledger is its own: a boolean query charges
// nothing even while numerical neighbours charge, and every numerical
// response's budget total equals the sequential value.
func TestPerRequestLedgersAreDisjoint(t *testing.T) {
	_, ts, m, fp := newTestServer(t, -1)

	numerical := "P=? [ !call_incoming U{t<=12} call_incoming ]"
	boolean := "call_idle | doze"

	opts := core.DefaultOptions()
	opts.Epsilon = 1e-7
	direct := core.New(m, opts)
	rec := obs.New()
	if _, err := direct.WithRecorder(rec).Values(logic.MustParse(numerical)); err != nil {
		t.Fatal(err)
	}
	wantTotal := rec.Report(opts.Epsilon).BudgetTotal

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				_, resp, _ := postCheck(t, ts.URL, CheckRequest{Model: fp, Formula: numerical})
				if resp.Report == nil {
					t.Error("numerical: missing report")
					return
				}
				if fmt.Sprintf("%x", resp.Report.BudgetTotal) != fmt.Sprintf("%x", wantTotal) {
					t.Errorf("numerical budget total %g != sequential %g (ledger bled across requests?)",
						resp.Report.BudgetTotal, wantTotal)
				}
			} else {
				_, resp, _ := postCheck(t, ts.URL, CheckRequest{Model: fp, Formula: boolean})
				if resp.Report == nil {
					t.Error("boolean: missing report")
					return
				}
				if len(resp.Report.Budget) != 0 || resp.Report.BudgetTotal != 0 {
					t.Errorf("boolean query charged the ledger: %+v", resp.Report.Budget)
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestCheckErrors(t *testing.T) {
	_, ts, _, fp := newTestServer(t, -1)

	status, _, apiErr := postCheck(t, ts.URL, CheckRequest{Model: "deadbeef", Formula: "true"})
	if status != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404 (%s)", status, apiErr.Error)
	}
	status, _, apiErr = postCheck(t, ts.URL, CheckRequest{Model: fp, Formula: "P=? [ oops"})
	if status != http.StatusBadRequest {
		t.Fatalf("bad formula: status %d, want 400 (%s)", status, apiErr.Error)
	}
	status, _, apiErr = postCheck(t, ts.URL, CheckRequest{Model: fp, Formula: "no_such_label"})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown label: status %d, want 422 (%s)", status, apiErr.Error)
	}

	resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	get, err := http.Get(ts.URL + "/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/check: status %d, want 405", get.StatusCode)
	}
}

func TestRecorderInOptionsRejected(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Obs = obs.New()
	if _, err := New(Options{Checker: opts}); err == nil {
		t.Fatal("New accepted a shared recorder in Options.Checker.Obs")
	}
}

// TestHugeTimeBoundIsAnErrorNotACrash sends a P3 query whose vacuous
// reward bound routes Sericola onto its transient leg with a time bound
// whose Poisson window no check can finish. The request must come back as
// a JSON error, and the server — whose admission timer goroutine runs the
// batch — must keep serving.
func TestHugeTimeBoundIsAnErrorNotACrash(t *testing.T) {
	_, ts, _, fp := newTestServer(t, 0)
	huge := "P=? [ (call_idle | doze) U{t<=1e300, r<=1e308} call_initiated ]"
	status, _, apiErr := postCheck(t, ts.URL, CheckRequest{Model: fp, Formula: huge})
	if status < 400 || status > 599 || apiErr.Error == "" {
		t.Fatalf("huge time bound: status %d, error %q; want a 4xx/5xx JSON error", status, apiErr.Error)
	}
	status, resp, apiErr := postCheck(t, ts.URL, CheckRequest{Model: fp, Formula: "P=? [ (call_idle | doze) U{t<=24, r<=550} call_initiated ]"})
	if status != http.StatusOK || resp.Value == nil {
		t.Fatalf("follow-up query: status %d, error %q", status, apiErr.Error)
	}
}

// TestOversizedSericolaIsRefused sends a reward-bounded until on cluster:60
// whose occupation-time recursion exceeds the Sericola size caps. It must
// come back as a 422 naming the cap, not take the process down, and the
// server must keep serving.
func TestOversizedSericolaIsRefused(t *testing.T) {
	_, ts, _, fp := newTestServer(t, 0)
	params, err := cluster.Default(60)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := params.Build()
	if err != nil {
		t.Fatal(err)
	}
	clFP := upload(t, ts.URL, cl)
	status, _, apiErr := postCheck(t, ts.URL, CheckRequest{Model: clFP, Formula: "P=? [ !down U{t<=96, r<=50} down ]"})
	if status != http.StatusUnprocessableEntity || !strings.Contains(apiErr.Error, sericola.ErrTooLarge.Error()) {
		t.Fatalf("oversized recursion: status %d, error %q; want 422 and %q", status, apiErr.Error, sericola.ErrTooLarge)
	}
	status, resp, apiErr := postCheck(t, ts.URL, CheckRequest{Model: fp, Formula: "P=? [ (call_idle | doze) U{t<=24, r<=550} call_initiated ]"})
	if status != http.StatusOK || resp.Value == nil {
		t.Fatalf("follow-up query: status %d, error %q", status, apiErr.Error)
	}
}
