package core

import (
	"math"
	"testing"
	"time"

	"pcf/internal/lp"
	"pcf/internal/lp/lptest"
)

// TestGadgetMastersCertified solves the seeded cut master of every
// topozoo gadget cold — the LP the slack crash start exists for —
// certifies each answer from first principles (lptest.Certify) and pins
// the claim the start rests on: capacity rows are "<= c" and seed cuts
// ">= 0", so every row starts on its slack and phase 1 never runs.
func TestGadgetMastersCertified(t *testing.T) {
	for name, in := range gadgetInstances(t) {
		for scheme, build := range map[string]advBuilder{"ffc": buildFFCAdversary, "pcf-tf": buildPCFAdversary} {
			m, mv, _ := buildMaster(in, nil, in.DemandPairs(), in.ConstraintPairs(), 0)
			ms := &master{in: in}
			if err := ms.seal(m, buildSpecs(in, mv, build), time.Now()); err != nil {
				t.Fatalf("%s/%s: %v", name, scheme, err)
			}
			rows := m.NumConstraints() // plus one bound row per ranged variable
			for v := 0; v < m.NumVars(); v++ {
				if lo, hi := m.Bounds(lp.Var(v)); !math.IsInf(lo, -1) && !math.IsInf(hi, 1) {
					rows++
				}
			}
			sol, err := lp.Solve(m)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, scheme, err)
			}
			if err := lptest.Certify(m, nil, sol); err != nil {
				t.Fatalf("%s/%s: %v", name, scheme, err)
			}
			if st := sol.Stats; st.Phase1Iters != 0 || st.SlackStartRows != rows {
				t.Fatalf("%s/%s: %d phase-1 iterations, %d of %d rows slack-started",
					name, scheme, st.Phase1Iters, st.SlackStartRows, rows)
			}
		}
	}
}
