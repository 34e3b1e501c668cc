package modelfile

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"testing"

	"github.com/performability/csrl/internal/mrm"
)

// impulseDoc is a model with an impulse reward on its one transition.
const impulseDoc = `{
  "states": [
    {"name": "a", "reward": 1, "init": 0.25},
    {"name": "b", "labels": ["done"], "init": 0.75}
  ],
  "transitions": [
    {"from": "a", "to": "b", "rate": 2, "impulse": 3.5},
    {"from": "b", "to": "a", "rate": 0.5}
  ]
}`

// FuzzDecode asserts that Decode never panics, whatever the input, and
// that a decoded model encodes and re-decodes to the same states, names,
// rewards, labels, rates, initial distribution and impulses, and to the
// same fingerprint, under which csrld registers a model. The seeds are the
// package's sample, the station model, an impulse model and the corpus
// under testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	station, err := os.ReadFile("../../testdata/station.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{sample, string(station), impulseDoc} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		m, err := Decode(bytes.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			t.Fatalf("Encode of a decoded model: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("encoded model does not re-decode: %v\n%s", err, buf.Bytes())
		}
		if err := sameModel(m, again); err != nil {
			t.Fatalf("round trip: %v\n%s", err, buf.Bytes())
		}
		if m.Fingerprint() != again.Fingerprint() {
			t.Fatalf("round trip moved the fingerprint\n%s", buf.Bytes())
		}
	})
}

// sameModel returns an error naming the first difference between a and b
// in states, names, rewards, labels, rates, initial distribution or
// impulses. Values compare with ==, so +0 and −0 are the same value (an
// omitted zero field decodes as +0).
func sameModel(a, b *mrm.MRM) error {
	if a.N() != b.N() {
		return fmt.Errorf("%d states, then %d", a.N(), b.N())
	}
	if !slices.Equal(a.Labels(), b.Labels()) {
		return fmt.Errorf("labels %v, then %v", a.Labels(), b.Labels())
	}
	ai, bi := a.InitView(), b.InitView()
	for s := 0; s < a.N(); s++ {
		if a.Name(s) != b.Name(s) {
			return fmt.Errorf("state %d: name %q, then %q", s, a.Name(s), b.Name(s))
		}
		if a.Reward(s) != b.Reward(s) {
			return fmt.Errorf("state %d: reward %v, then %v", s, a.Reward(s), b.Reward(s))
		}
		if ai[s] != bi[s] {
			return fmt.Errorf("state %d: initial probability %v, then %v", s, ai[s], bi[s])
		}
		for _, l := range a.Labels() {
			if a.HasLabel(s, l) != b.HasLabel(s, l) {
				return fmt.Errorf("state %d: label %q %v, then %v", s, l, a.HasLabel(s, l), b.HasLabel(s, l))
			}
		}
	}
	// Every non-zero rate of a must reappear in b with its impulse, and b
	// must hold no further non-zero rate.
	var diff error
	count := func(m *mrm.MRM) (k int) {
		m.Rates().Each(func(_, _ int, v float64) {
			if v != 0 {
				k++
			}
		})
		return k
	}
	a.Rates().Each(func(i, j int, v float64) {
		if diff != nil || v == 0 {
			return
		}
		if w := b.Rates().At(i, j); w != v {
			diff = fmt.Errorf("rate (%d, %d): %v, then %v", i, j, v, w)
		} else if x, y := a.Impulse(i, j), b.Impulse(i, j); x != y {
			diff = fmt.Errorf("impulse (%d, %d): %v, then %v", i, j, x, y)
		}
	})
	if diff == nil && count(a) != count(b) {
		diff = fmt.Errorf("%d non-zero rates, then %d", count(a), count(b))
	}
	return diff
}
