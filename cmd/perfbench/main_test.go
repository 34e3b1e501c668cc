package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTable1Static(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"launch", "0.75", "Doze", "20 mA"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table 1 output missing %q", want)
		}
	}
}

func TestTable2ReproducesNColumn(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	// The paper's N values must appear verbatim.
	for _, n := range []string{"496", "519", "536", "551", "563", "574", "585", "594"} {
		if !strings.Contains(out.String(), n) {
			t.Errorf("table 2 output missing N=%s:\n%s", n, out.String())
		}
	}
	if !strings.Contains(out.String(), "0.4954") {
		t.Errorf("table 2 did not converge to the paper value:\n%s", out.String())
	}
}

func TestFigure2StateSpace(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "9 reachable markings") {
		t.Errorf("figure 2 output:\n%s", out.String())
	}
}

func TestFigure1Trajectories(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure", "1", "-paths", "1"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "trajectory 1") {
		t.Errorf("figure 1 output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Monte-Carlo estimate") {
		t.Errorf("figure 1 missing the estimate:\n%s", out.String())
	}
}

func TestPropertyQ3FailsAtTextBounds(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-q", "3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "holds: false") {
		t.Errorf("Q3 should not hold:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0.4969") {
		t.Errorf("Q3 text-bound value missing:\n%s", out.String())
	}
}

func TestDumpModelRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "station.json")
	var out bytes.Buffer
	if err := run([]string{"-dump-model", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}
	for _, want := range []string{"adhoc_idle", "call_initiated", `"rate"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("dumped model missing %q", want)
		}
	}
}

func TestNoActionIsAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("empty invocation should fail with usage")
	}
}

// TestOutOfRangeSelectionIsAnError pins that a selector naming no table,
// figure or property, or a bound that is not a finite positive number,
// fails up front instead of printing nothing and exiting cleanly.
func TestOutOfRangeSelectionIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "7"}, {"-table", "-1"},
		{"-figure", "3"},
		{"-q", "4"}, {"-q", "0", "-table", "5"},
		{"-table", "2", "-r", "0"}, {"-table", "2", "-r", "-550"},
		{"-table", "2", "-r", "NaN"}, {"-table", "2", "-r", "+Inf"},
		{"-q", "3", "-t", "0"}, {"-q", "3", "-t", "NaN"}, {"-all", "-t", "Inf"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: accepted, want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, out.String())
		}
	}
}
