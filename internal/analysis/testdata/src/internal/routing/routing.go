// Package routing exercises checkederr's one protected method: Check
// on routing's Sweep, resolved by type — a Check on any other type is
// not protected.
package routing

import "testing/quick"

// Realization is a routing for one scenario.
type Realization struct{ ArcLoad []float64 }

// Sweep is the realization engine; Check is the realization check.
type Sweep struct{}

func (*Sweep) Check(r *Realization) error { return nil }

// probe has a Check of its own.
type probe struct{}

func (probe) Check(r *Realization) error { return nil }

var keep error

func drops(sw *Sweep, r *Realization) {
	_ = sw.Check(r)   // want "error from Sweep.Check assigned to _"
	sw.Check(r)       // want "error from Sweep.Check is discarded"
	defer sw.Check(r) // want "error from Sweep.Check is discarded by defer"
}

func others(r *Realization) {
	var p probe
	_ = p.Check(r)
	p.Check(r)
	quick.Check(func(int) bool { return true }, nil)
}

func handles(sw *Sweep, r *Realization) {
	if err := sw.Check(r); err != nil {
		keep = err
	}
}
