package core

import (
	"math"
	"testing"

	"pcf/internal/failures"
	"pcf/internal/lp"
	"pcf/internal/lp/lptest"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// TestGadgetMastersCertified solves the seeded cut master of every
// topozoo gadget cold — the LP the slack crash start exists for — under
// both factorizations, certifies each answer from first principles
// (lptest.Certify) and pins the claim the start rests on: capacity rows
// are "<= c" and seed cuts ">= 0", so every row starts on its slack and
// phase 1 never runs.
func TestGadgetMastersCertified(t *testing.T) {
	gadgets := []struct {
		name   string
		gad    *topozoo.Gadget
		budget int
	}{
		{"fig1-f1", topozoo.Fig1(), 1},
		{"fig1-f2", topozoo.Fig1(), 2},
		{"fig3-f1", topozoo.Fig3(), 1},
		{"fig4-f1", topozoo.Fig4(2, 3, 4), 1},
		{"fig5-f2", topozoo.Fig5(), 2},
	}
	for _, g := range gadgets {
		pair := topology.Pair{Src: g.gad.S, Dst: g.gad.T}
		ts := tunnels.NewSet(g.gad.Graph)
		for _, tun := range g.gad.Tunnels {
			ts.MustAdd(pair, tun)
		}
		if len(g.gad.Tunnels) == 0 {
			var err error
			if ts, err = tunnels.Select(g.gad.Graph, []topology.Pair{pair}, tunnels.SelectOptions{PerPair: 3}); err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
		}
		in := &Instance{
			Graph:     g.gad.Graph,
			TM:        traffic.Single(g.gad.Graph.NumNodes(), pair, 1),
			Tunnels:   ts,
			Failures:  failures.SingleLinks(g.gad.Graph, g.budget),
			Objective: DemandScale,
		}
		for scheme, build := range map[string]advBuilder{"ffc": buildFFCAdversary, "pcf-tf": buildPCFAdversary} {
			m, mv := buildMaster(in, false)
			var specs []*advSpec
			for _, p := range in.ConstraintPairs() {
				specs = append(specs, build(in, p, mv))
			}
			if _, err := seedMaster(m, specs); err != nil {
				t.Fatalf("%s/%s: %v", g.name, scheme, err)
			}
			rows := m.NumConstraints() // plus one bound row per ranged variable
			for v := 0; v < m.NumVars(); v++ {
				if lo, hi := m.Bounds(lp.Var(v)); !math.IsInf(lo, -1) && !math.IsInf(hi, 1) {
					rows++
				}
			}
			for _, f := range []lp.Factorization{lp.FactorDense, lp.FactorSparse} {
				sol, err := lp.SolveWithOptions(m, lp.Options{Factorization: f})
				if err != nil {
					t.Fatalf("%s/%s: %v", g.name, scheme, err)
				}
				if err := lptest.Certify(m, nil, sol); err != nil {
					t.Fatalf("%s/%s, factorization %v: %v", g.name, scheme, f, err)
				}
				if st := sol.Stats; st.Phase1Iters != 0 || st.SlackStartRows != rows {
					t.Fatalf("%s/%s, factorization %v: %d phase-1 iterations, %d of %d rows slack-started",
						g.name, scheme, f, st.Phase1Iters, st.SlackStartRows, rows)
				}
			}
		}
	}
}
