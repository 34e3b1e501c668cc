package mrm

import (
	"math"
	"testing"
)

// fpModel builds a small labelled model; mutate tweaks the builder before
// Build so each test case can perturb exactly one ingredient.
func fpModel(t *testing.T, mutate func(*Builder)) *MRM {
	t.Helper()
	b := NewBuilder(3)
	b.Rate(0, 1, 2.5).Rate(1, 0, 1.0).Rate(1, 2, 0.5)
	b.Reward(0, 1).Reward(1, 3)
	b.Label(0, "up").Label(1, "up").Label(2, "down")
	b.Name(0, "a").Name(1, "b").Name(2, "c")
	b.InitialState(0)
	if mutate != nil {
		mutate(b)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestFingerprintStableAcrossRebuilds(t *testing.T) {
	a := fpModel(t, nil)
	b := fpModel(t, nil)
	if a == b {
		t.Fatal("want two distinct model values")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("identical builds disagree: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	if got := a.Fingerprint(); got != a.Fingerprint() {
		t.Errorf("fingerprint not deterministic: %s vs %s", got, a.Fingerprint())
	}
	if len(a.Fingerprint()) != 64 {
		t.Errorf("want 64 hex chars, got %d", len(a.Fingerprint()))
	}
}

func TestFingerprintBuilderOrderIndependent(t *testing.T) {
	base := fpModel(t, nil)
	b := NewBuilder(3)
	// Same content, reversed call order.
	b.InitialState(0)
	b.Name(2, "c").Name(1, "b").Name(0, "a")
	b.Label(2, "down").Label(1, "up").Label(0, "up")
	b.Reward(1, 3).Reward(0, 1)
	b.Rate(1, 2, 0.5).Rate(1, 0, 1.0).Rate(0, 1, 2.5)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if base.Fingerprint() != m.Fingerprint() {
		t.Error("builder call order changed the fingerprint")
	}
}

// TestFingerprintNegativeZero pins that a −0 reward or initial
// probability is the +0 a model file that omits it decodes to.
func TestFingerprintNegativeZero(t *testing.T) {
	base := fpModel(t, func(b *Builder) { b.Reward(2, 0).InitialProb(2, 0) })
	neg := fpModel(t, func(b *Builder) { b.Reward(2, math.Copysign(0, -1)).InitialProb(2, math.Copysign(0, -1)) })
	if base.Fingerprint() != neg.Fingerprint() {
		t.Error("−0 reward and initial probability changed the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := fpModel(t, nil).Fingerprint()
	cases := map[string]func(*Builder){
		"rate value":   func(b *Builder) { b.Rate(0, 1, 0.5) }, // rates accumulate
		"new edge":     func(b *Builder) { b.Rate(2, 0, 1.0) },
		"reward":       func(b *Builder) { b.Reward(2, 7) },
		"label member": func(b *Builder) { b.Label(2, "up") },
		"new label":    func(b *Builder) { b.Label(0, "fresh") },
		"init":         func(b *Builder) { b.InitialState(1) },
		"name":         func(b *Builder) { b.Name(2, "z") },
		"impulse":      func(b *Builder) { b.Impulse(0, 1, 4) },
	}
	for name, mutate := range cases {
		if got := fpModel(t, mutate).Fingerprint(); got == base {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
}

func TestFingerprintSizeMatters(t *testing.T) {
	small, err := NewBuilder(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewBuilder(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	if small.Fingerprint() == big.Fingerprint() {
		t.Error("state-count change did not change the fingerprint")
	}
}
