package faultinject

import (
	"testing"

	"pcf/internal/lp"
	"pcf/internal/lp/lptest"
)

// TestCertificateCorpus certifies every corpus answer from first
// principles (lptest.Certify: primal feasible, dual feasible, zero
// gap), under both factorizations. The equivalence tests compare
// solver paths with each other; this one would still fail if they all
// went wrong together, e.g. from a bad start basis.
func TestCertificateCorpus(t *testing.T) {
	for _, seed := range []int64{7, 99, 12345} {
		for i, m := range LPCorpus(seed) {
			for _, f := range []lp.Factorization{lp.FactorDense, lp.FactorSparse} {
				sol, err := lp.SolveWithOptions(m, lp.Options{Factorization: f})
				if err != nil {
					t.Fatalf("corpus(%d)[%d], factorization %v: %v", seed, i, f, err)
				}
				if err := lptest.Certify(m, nil, sol); err != nil {
					t.Fatalf("corpus(%d)[%d], factorization %v: %v", seed, i, f, err)
				}
			}
		}
	}
}
