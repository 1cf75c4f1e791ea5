// Package bare exercises floatcmp's literal rule: in a package under
// internal/, a float literal below 1e-3 is a finding unless it is named
// in internal/tol or carries a reasoned suppression.
package bare

import "internal/tol"

var sink bool

func thresholds(load, c float64) {
	sink = load > c+1e-7    // want "bare tolerance 1e-7; name it in internal/tol"
	sink = load > c+0.00002 // want "bare tolerance 0.00002"
	sink = load > c+tol.Cut // the named tolerance: allowed
	sink = load > c*1e-3    // at the bound, not below it: allowed
	sink = load > 0.5*c     // allowed
	sink = load > 0.0       // zero is no tolerance: allowed
	//lint:ignore pcflint/floatcmp a floor, not a tolerance
	sink = load > c+1e-9
}
