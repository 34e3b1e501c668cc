package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsShort runs every workload briefly, untraced and traced, and
// checks that each result line carries exactly BENCHMARK.json's metrics
// with their units.
func TestWorkloadsShort(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(names, code) {
		t.Fatalf("BENCHMARK.json workloads %v, harness %v", names, code)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			// The open-loop runs need enough traced requests for the
			// trace.coverage gate to see the mix.
			seconds := "0.3"
			if strings.HasPrefix(name, "csrld-") {
				seconds = "2"
			}
			args := []string{"-workload", name, "-seed", "1", "-seconds", seconds, "-short"}
			if trace {
				args = append(args, "-trace")
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for k, v := range res.Metrics {
				got[k] = v.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%v: metrics %v, BENCHMARK.json %v", args, got, want[trace])
			}
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	mix := [][]int{{0}, {1}, {2, 3}, {4}}
	a, b, c := openLoopSchedule(1, time.Second, mix), openLoopSchedule(1, time.Second, mix), openLoopSchedule(2, time.Second, mix)
	if len(a) != len(mix) || !reflect.DeepEqual(a, b) {
		t.Errorf("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 1 and 2 gave the same schedule")
	}
}

func TestScenarios(t *testing.T) {
	all, err := parseScenarios(scenariosTxt)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scenariosFor(all, "csrld-sweep")[0].instances()); got != 12 {
		t.Errorf("csrld-sweep expands to %d queries, want 12", got)
	}
	bad := "a;station;P<=0.5 [ F{t<=1} doze ];;holds=true\nb;station;P<=0.5 [ F{t<=1} doze ];;holds=false\n"
	if _, err := parseScenarios(bad); err == nil {
		t.Error("rows pinning different verdicts for one model and formula were accepted")
	}
}

func TestJoinBoolValues(t *testing.T) {
	got := joinBoolValues([]string{"--trace", "0", "--seed", "1", "-trace", "1", "-trace"}, "trace")
	want := []string{"--trace=0", "--seed", "1", "-trace=1", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}
