// Truncation sites whose dropped mass never reaches the error-budget
// ledger, plus annotation labels outside the canonical vocabulary.
package fake

import (
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/obs"
)

// uncharged drops the Fox–Glynn tails on the floor: the success path
// returns without a ledger charge.
func uncharged(q, eps float64) (int, error) {
	w, err := numeric.FoxGlynn(q, eps) // want "not charged to the ledger"
	if err != nil {
		return 0, err
	}
	return len(w.W), nil
}

// oneArmOnly charges on the fast path but lets the slow path leave the
// function silently.
func oneArmOnly(q, eps float64, rec *obs.Recorder, fast bool) error {
	w, err := numeric.FoxGlynn(q, eps) // want "not charged to the ledger"
	if err != nil {
		return err
	}
	if fast {
		rec.Charge("foxglynn", "left-tail", w.LeftTailMass)
		rec.Charge("foxglynn", "right-tail", w.RightTailMass)
		return nil
	}
	return nil
}

// indicativeOnly mistakes the advisory section for the bounded ledger:
// ChargeIndicative does not discharge the obligation.
func indicativeOnly(q, eps float64, rec *obs.Recorder) error {
	w, err := numeric.FoxGlynn(q, eps) // want "not charged to the ledger"
	if err != nil {
		return err
	}
	rec.ChargeIndicative("foxglynn", "left-tail", w.LeftTailMass)
	return nil
}

// chargeBehindCondition guards the recorder but charges only when report
// holds: the recorder-on, report-off path drops the tails silently, so
// the guard does not count as charging.
func chargeBehindCondition(q, eps float64, rec *obs.Recorder, report bool) error {
	w, err := numeric.FoxGlynn(q, eps) // want "not charged to the ledger"
	if err != nil {
		return err
	}
	if rec != nil {
		if report {
			rec.Charge("foxglynn", "left-tail", w.LeftTailMass)
			rec.Charge("foxglynn", "right-tail", w.RightTailMass)
		}
	}
	return nil
}

// badLabels carries annotation labels the ledger vocabulary does not know:
// a typo here silently fragments the numerics report.
//
//numerics:truncates foxglyn/left-tail // want "unknown component"
func badLabels(q, eps float64) (*numeric.PoissonWeights, error) {
	return numeric.FoxGlynn(q, eps)
}

//numerics:truncates sericola/series-remaindr // want "unknown term"
func badTerm(q, eps float64) (int, error) {
	return numeric.PoissonTruncation(q, eps)
}
