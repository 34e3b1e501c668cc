package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke drives the full acceptance smoke — real listener, 8
// concurrent HTTP clients, two waves — through the run() entry point
// exactly as `csrld -smoke` and `make serve-smoke` do.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-smoke", "-epsilon", "1e-7"}, &out)
	if err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, out.String())
	}
	if code != 0 {
		t.Fatalf("smoke exit code %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "smoke: PASS") {
		t.Fatalf("smoke output missing PASS line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "batches fired") {
		t.Fatalf("smoke output missing batch statistics:\n%s", out.String())
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	for _, flag := range []string{"-h", "-help", "--help"} {
		var out bytes.Buffer
		code, err := run([]string{flag}, &out)
		if err != nil {
			t.Errorf("%s: err = %v, want nil", flag, err)
		}
		if code != 0 {
			t.Errorf("%s: exit code %d, want 0", flag, code)
		}
	}
}

func TestRunRejectsPositionalArgs(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"stray"}, &out)
	if code != 1 || err == nil {
		t.Fatalf("stray argument: code %d err %v, want 1 and an error", code, err)
	}
}

func TestRunRejectsBadPreload(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-preload", "cluster:0", "-addr", "127.0.0.1:0"}, &out)
	if code != 1 || err == nil || !strings.Contains(err.Error(), "N >= 1") {
		t.Fatalf("cluster:0 preload: code %d err %v, want guard error", code, err)
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-algorithm", "nope", "-smoke"}, &out)
	if code != 1 || err == nil {
		t.Fatalf("unknown algorithm: code %d err %v, want 1 and an error", code, err)
	}
}

// TestRunRejectsInvalidStep pins the -d validation: a negative or
// non-finite discretisation step is refused at startup with an error
// naming the flag.
func TestRunRejectsInvalidStep(t *testing.T) {
	for _, v := range []string{"-1", "NaN", "Inf"} {
		var out bytes.Buffer
		code, err := run([]string{"-d", v, "-smoke"}, &out)
		if code != 1 || err == nil || !strings.Contains(err.Error(), "-d") {
			t.Errorf("-d %s: code %d err %v, want 1 and an error naming the flag", v, code, err)
		}
	}
}

// TestRunRejectsInvalidEpsilon pins the -epsilon validation: an accuracy
// outside (0, 1) or not finite is refused at startup with an error naming
// the flag.
func TestRunRejectsInvalidEpsilon(t *testing.T) {
	for _, v := range []string{"NaN", "Inf", "0", "1"} {
		var out bytes.Buffer
		code, err := run([]string{"-epsilon", v, "-smoke"}, &out)
		if code != 1 || err == nil || !strings.Contains(err.Error(), "-epsilon") {
			t.Errorf("-epsilon %s: code %d err %v, want 1 and an error naming the flag", v, code, err)
		}
	}
}

func TestRunRejectsInvalidTruncate(t *testing.T) {
	for _, v := range []string{"-1", "NaN", "Inf"} {
		var out bytes.Buffer
		code, err := run([]string{"-truncate", v, "-smoke"}, &out)
		if code != 1 || err == nil || !strings.Contains(err.Error(), "-truncate") {
			t.Errorf("-truncate %s: code %d err %v, want 1 and an error naming the flag", v, code, err)
		}
	}
}
