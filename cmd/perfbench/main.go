// Command perfbench regenerates every table and figure of the paper's
// evaluation (Section 5) from this repository's implementations:
//
//	perfbench -table 1    transition rates and rewards of the SRN
//	perfbench -table 2    occupation-time algorithm: value, N, time vs ε
//	perfbench -table 3    pseudo-Erlang approximation: value, error, time vs k
//	perfbench -table 4    discretisation: value, error, time vs step d
//	perfbench -figure 1   sample trajectories of the 2-D process (X_t, Y_t)
//	perfbench -figure 2   the SRN reachability graph (Figure 2 → 9-state MRM)
//	perfbench -q 1|2|3    check properties Q1–Q3 through the CSRL checker
//	perfbench -all        everything above in order
//
// By default tables use the effective reward bound r = 550 mAh that
// reproduces the paper's printed numbers (see EXPERIMENTS.md); pass
// -r 600 for the bound as literally stated in the text.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/discretise"
	"github.com/performability/csrl/internal/erlang"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/modelfile"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/sericola"
	"github.com/performability/csrl/internal/sim"
	"github.com/performability/csrl/internal/srn"
	"github.com/performability/csrl/internal/transient"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		table   = fs.Int("table", 0, "regenerate table 1-4")
		figure  = fs.Int("figure", 0, "regenerate figure 1-2")
		q       = fs.Int("q", 0, "check property Q1-Q3")
		all     = fs.Bool("all", false, "regenerate everything")
		rBound  = fs.Float64("r", adhoc.Q3PaperRewardBound, "reward bound for the Q3 path formula (mAh)")
		tBound  = fs.Float64("t", adhoc.Q3TimeBound, "time bound for the Q3 path formula (hours)")
		paths   = fs.Int("paths", 5, "trajectories for -figure 1")
		seed    = fs.Int64("seed", 1, "simulation seed")
		dump    = fs.String("dump-model", "", "write the case-study MRM as JSON to this path and exit")
		workers = fs.Int("workers", 0, "worker goroutines for the numerical procedures (0 = GOMAXPROCS, 1 = sequential)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dump != "" {
		return dumpModel(w, *dump)
	}
	if !*all && *table == 0 && *figure == 0 && *q == 0 {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -table, -figure, -q or -all")
	}
	for _, sel := range []struct {
		name     string
		val, max int
	}{{"table", *table, 4}, {"figure", *figure, 2}, {"q", *q, 3}} {
		if sel.val < 0 || sel.val > sel.max {
			return fmt.Errorf("-%s %d out of range 1-%d", sel.name, sel.val, sel.max)
		}
	}
	for _, b := range []struct {
		name string
		val  float64
	}{{"r", *rBound}, {"t", *tBound}} {
		if !(b.val > 0) || math.IsInf(b.val, 1) {
			return fmt.Errorf("-%s must be a finite bound > 0, got %v", b.name, b.val)
		}
	}

	red, err := adhoc.Q3Reduced()
	if err != nil {
		return err
	}
	goal := red.Model.Label("goal")
	init := red.Model.InitialState()

	do := func(n int, sel *int, fn func() error) error {
		if *all || *sel == n {
			return fn()
		}
		return nil
	}
	steps := []func() error{
		func() error { return do(1, table, func() error { return table1(w) }) },
		func() error { return do(2, figure, func() error { return figure2(w) }) },
		func() error {
			return do(2, table, func() error { return table2(w, red.Model, goal, init, *tBound, *rBound, *workers) })
		},
		func() error {
			return do(3, table, func() error { return table3(w, red.Model, goal, init, *tBound, *rBound, *workers) })
		},
		func() error {
			return do(4, table, func() error { return table4(w, red.Model, goal, init, *tBound, *rBound, *workers) })
		},
		func() error {
			return do(1, figure, func() error { return figure1(w, red.Model, goal, init, *tBound, *rBound, *paths, *seed) })
		},
		func() error { return do(1, q, func() error { return property(w, 1) }) },
		func() error { return do(2, q, func() error { return property(w, 2) }) },
		func() error { return do(3, q, func() error { return property(w, 3) }) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func table1(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: transition rates and rewards of the SRN (Figure 2)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-12s %-10s %s\n", "transition", "mean time", "rate (per hour)")
	rows := []struct {
		name string
		mean string
		rate float64
	}{
		{"accept", "20 sec", adhoc.RateAccept},
		{"connect", "10 sec", adhoc.RateConnect},
		{"disconnect", "4 min", adhoc.RateDisconnect},
		{"doze", "5 min", adhoc.RateDoze},
		{"give up", "1 min", adhoc.RateGiveUp},
		{"interrupt", "1 min", adhoc.RateInterrupt},
		{"launch", "80 min", adhoc.RateLaunch},
		{"reconfirm", "4 min", adhoc.RateReconfirm},
		{"request", "10 min", adhoc.RateRequest},
		{"ring", "80 min", adhoc.RateRing},
		{"wake up", "16 min", adhoc.RateWakeUp},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %-10s %g\n", r.name, r.mean, r.rate)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-16s %s\n", "place", "reward")
	rewards := []struct {
		name  string
		value float64
	}{
		{"Ad hoc Active", adhoc.PowerAdHocActive},
		{"Ad hoc Idle", adhoc.PowerAdHocIdle},
		{"Call Active", adhoc.PowerCallActive},
		{"Call Idle", adhoc.PowerCallIdle},
		{"Call Incoming", adhoc.PowerCallIncoming},
		{"Call Initiated", adhoc.PowerCallInitiated},
		{"Doze", adhoc.PowerDoze},
	}
	for _, r := range rewards {
		fmt.Fprintf(w, "  %-16s %g mA\n", r.name, r.value)
	}
	fmt.Fprintln(w)
	return nil
}

func table2(w io.Writer, m *mrm.MRM, goal *mrm.StateSet, init int, tb, rb float64, workers int) error {
	fmt.Fprintf(w, "Table 2: occupation-time distribution algorithm (t=%g, r=%g, λ=%g)\n\n", tb, rb, adhoc.PaperLambda)
	fmt.Fprintf(w, "  %-8s %-5s %-14s %s\n", "eps", "N", "value", "time")
	for _, eps := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8} {
		start := time.Now()
		res, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{Epsilon: eps, Lambda: adhoc.PaperLambda, Workers: workers})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-8.0e %-5d %-14.8f %v\n", eps, res.N, res.Values[init], time.Since(start).Round(time.Microsecond))
	}
	fmt.Fprintln(w)
	return nil
}

func table3(w io.Writer, m *mrm.MRM, goal *mrm.StateSet, init int, tb, rb float64, workers int) error {
	fmt.Fprintf(w, "Table 3: pseudo-Erlang approximation (t=%g, r=%g)\n\n", tb, rb)
	// Reference value for the relative-error column, as in the paper.
	ref, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{Epsilon: 1e-10})
	if err != nil {
		return err
	}
	exact := ref.Values[init]
	fmt.Fprintf(w, "  %-6s %-14s %-10s %s\n", "k", "value", "rel.err", "time")
	for k := 1; k <= 1024; k *= 2 {
		start := time.Now()
		opts := erlang.Options{K: k, Transient: transient.Options{Epsilon: 1e-12, Workers: workers}}
		vals, err := erlang.ReachProbAll(m, goal, tb, rb, opts)
		if err != nil {
			return err
		}
		v := vals[init]
		fmt.Fprintf(w, "  %-6d %-14.8f %-9.2f%%  %v\n", k, v, 100*abs(v-exact)/exact, time.Since(start).Round(time.Microsecond))
	}
	fmt.Fprintln(w)
	return nil
}

func table4(w io.Writer, m *mrm.MRM, goal *mrm.StateSet, init int, tb, rb float64, workers int) error {
	fmt.Fprintf(w, "Table 4: Tijms–Veldman discretisation (t=%g, r=%g)\n\n", tb, rb)
	ref, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{Epsilon: 1e-10})
	if err != nil {
		return err
	}
	exact := ref.Values[init]
	fmt.Fprintf(w, "  %-8s %-14s %-10s %s\n", "d", "value", "rel.err", "time")
	for _, den := range []int{16, 32, 64, 128} {
		start := time.Now()
		v, err := discretise.ReachProb(m, goal, tb, rb, init, discretise.Options{
			D:           1 / float64(den),
			AllowCoarse: den < 20, // the paper's first row exceeds 1/max E(s)
			Workers:     workers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  1/%-6d %-14.8f %-9.2f%%  %v\n", den, v, 100*abs(v-exact)/exact, time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	return nil
}

func figure1(w io.Writer, m *mrm.MRM, goal *mrm.StateSet, init int, tb, rb float64, paths int, seed int64) error {
	fmt.Fprintf(w, "Figure 1: the 2-D process (X_t, Y_t) with absorbing reward barrier r=%g\n\n", rb)
	s := sim.New(m, seed)
	for p := 0; p < paths; p++ {
		path, err := s.SamplePath(init, tb, 10_000)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  trajectory %d:\n", p+1)
		for _, e := range path.Events {
			marker := ""
			if e.Reward > rb {
				marker = "  <-- crossed the absorbing barrier"
			}
			fmt.Fprintf(w, "    t=%8.4f  X=%-28s Y=%8.2f%s\n", e.Time, m.Name(e.State), e.Reward, marker)
		}
	}
	est, err := s.ReachProb(init, goal, tb, rb, 200_000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n  Monte-Carlo estimate of Pr{Y_t ≤ r, X_t ∈ goal}: %v\n\n", est)
	return nil
}

func figure2(w io.Writer) error {
	fmt.Fprintln(w, "Figure 2: SRN of the battery-powered station → reachability graph")
	fmt.Fprintln(w)
	net, initM := adhoc.Net()
	m, markings, err := net.BuildMRM(initM, srn.Options{Reward: adhoc.Power})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %d places, %d transitions, %d reachable markings (paper: 9 recurrent states)\n\n",
		len(net.Places), len(net.Transitions), len(markings))
	for s := 0; s < m.N(); s++ {
		fmt.Fprintf(w, "  state %d: %-28s reward %5g mA, exit rate %6.2f\n", s, m.Name(s), m.Reward(s), m.ExitRate(s))
	}
	fmt.Fprintln(w)
	return nil
}

func property(w io.Writer, which int) error {
	m, err := adhoc.Model()
	if err != nil {
		return err
	}
	var bounded, query string
	switch which {
	case 1:
		bounded = "P>0.5 [ F{r<=600} call_incoming ]"
		query = "P=? [ F{r<=600} call_incoming ]"
	case 2:
		bounded = "P>0.5 [ F{t<=24} call_incoming ]"
		query = "P=? [ F{t<=24} call_incoming ]"
	case 3:
		bounded = "P>0.5 [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]"
		query = "P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]"
	default:
		return fmt.Errorf("unknown property Q%d", which)
	}
	c := core.New(m, core.DefaultOptions())
	vals, err := c.Values(logic.MustParse(query))
	if err != nil {
		return err
	}
	holds, err := c.Check(logic.MustParse(bounded))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Q%d: %s\n", which, bounded)
	fmt.Fprintf(w, "  probability from the initial state: %0.8f\n", vals[0])
	fmt.Fprintf(w, "  property holds: %v\n\n", holds)
	return nil
}

func dumpModel(w io.Writer, path string) error {
	m, err := adhoc.Model()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := modelfile.Encode(f, m); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote the 9-state case-study MRM to %s\n", path)
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
