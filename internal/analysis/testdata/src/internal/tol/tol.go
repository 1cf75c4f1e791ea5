// Package tol is the vocabulary fixture for floatcmp's literal rule:
// the one package where a float literal below 1e-3 is not a finding.
package tol

// Cut is a named tolerance.
const Cut = 1e-7
