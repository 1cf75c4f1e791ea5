package faultinject

import (
	"testing"

	"pcf/internal/lp"
	"pcf/internal/lp/lptest"
)

// TestCertificateCorpus certifies every corpus answer from first
// principles (lptest.Certify: primal feasible, dual feasible, zero
// gap). The equivalence tests compare solver paths with each other;
// this one reads no basis and no factor, so it would still fail if they
// all went wrong together, e.g. from a bad start basis.
func TestCertificateCorpus(t *testing.T) {
	for _, seed := range []int64{7, 99, 12345} {
		for i, m := range LPCorpus(seed) {
			sol, err := lp.Solve(m)
			if err != nil {
				t.Fatalf("corpus(%d)[%d]: %v", seed, i, err)
			}
			if err := lptest.Certify(m, nil, sol); err != nil {
				t.Fatalf("corpus(%d)[%d]: %v", seed, i, err)
			}
		}
	}
}
