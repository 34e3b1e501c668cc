package logic

import "testing"

// FuzzParse asserts that Parse never panics, whatever the input, and that
// a parsed formula's String() re-parses to a formula with the same
// String(). The seeds are the README and station-model formulas.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"P>0.5 [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]",
		"P<=0.021 [ !down U{t<=96} down ]",
		"P>0.01 [ operational U{t<=100, r<=400} failed ]",
		"S>=0.9 [ up ]",
		"P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]",
		"P>0.5 [ F{t<=24} call_incoming ]",
		"P=? [ F{r<=600} call_incoming ]",
		"P=? [ X{t in [0.5,1]} b ]",
		"P>0.5 [ a U{r in [2,6]} b ]",
		"P>=0.8 [ G{t<=5} ok ]",
		"P>0.5 [ (a | b) U{t<=1} (a & P<0.1 [ X c ]) ]",
		"true => !false",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		phi, err := Parse(input)
		if err != nil {
			return
		}
		s := phi.String()
		again, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not re-parse: %v", input, s, err)
		}
		if got := again.String(); got != s {
			t.Fatalf("Parse(%q) = %q, which re-parses to %q", input, s, got)
		}
	})
}
