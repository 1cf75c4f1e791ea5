package failures

import (
	"slices"
	"strings"
	"testing"
)

// FuzzReadSRLGs drives the SRLG parser with arbitrary input, mirroring
// FuzzReadLinks in internal/topology. The parser must never panic, and
// any spec list it accepts must satisfy the invariants SRLGSet relies
// on: at least one group, every group non-empty with distinct in-range
// links, alphas strictly inside (0,1) or exactly zero.
func FuzzReadSRLGs(f *testing.F) {
	seeds := []string{
		"0 3 7\n",
		"# comment\n\n0 1\nalpha=0.5 2 4\n",
		"alpha=0.25 0\n",
		"1\n2\n3\n",
		"0 0\n",         // duplicate in group: rejected
		"9\n",           // out of range: rejected
		"-1\n",          // negative: rejected
		"alpha=1.5 0\n", // alpha out of range: rejected
		"alpha=0 0\n",   // alpha zero: rejected
		"alpha=NaN 0\n", // NaN alpha: rejected
		"alpha=0.5\n",   // no links: rejected
		"x y\n",         // non-numeric: rejected
		"",              // empty: rejected
	}
	for _, s := range seeds {
		f.Add(s)
	}
	const numLinks = 8
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<12 {
			return
		}
		specs, err := ReadSRLGs(strings.NewReader(in), numLinks)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatal("accepted input with no groups")
		}
		for i, sp := range specs {
			if len(sp.Links) == 0 {
				t.Fatalf("group %d has no links", i)
			}
			seen := map[int]bool{}
			for _, l := range sp.Links {
				if l < 0 || int(l) >= numLinks {
					t.Fatalf("group %d: link %d out of range", i, l)
				}
				if seen[int(l)] {
					t.Fatalf("group %d: duplicate link %d", i, l)
				}
				seen[int(l)] = true
			}
			if !(sp.Alpha == 0 || (sp.Alpha > 0 && sp.Alpha < 1)) {
				t.Fatalf("group %d: alpha %g outside {0} ∪ (0,1)", i, sp.Alpha)
			}
		}
	})
}

// FuzzSamplerDraws drives the tail sampler with random models of at
// most 16 units, each probability a byte over 255 (0 and 1 included),
// and random budgets, kcaps and seeds. NewSampler must fail exactly when
// P(budget < K ≤ min(kcap, units)) is zero by the count DP; otherwise
// every draw is ascending and distinct, counts in (budget, min(kcap,
// units)], never holds a unit of probability 0 and always holds every
// unit of probability 1, and a second sampler on the same seed draws
// the same combinations.
func FuzzSamplerDraws(f *testing.F) {
	f.Add([]byte{0, 255, 40, 128, 7, 255, 0, 90}, uint8(1), uint8(3), int64(1))
	f.Add([]byte{26, 26, 26, 26, 26, 26}, uint8(0), uint8(20), int64(7))
	f.Add([]byte{255, 255, 255, 0}, uint8(1), uint8(0), int64(3))
	f.Add([]byte{0, 0, 3}, uint8(1), uint8(2), int64(-5))
	f.Add([]byte{1, 254, 128, 128, 255, 0, 17, 200, 64, 64, 33, 99, 255, 1, 0, 250}, uint8(2), uint8(5), int64(42))
	f.Fuzz(func(t *testing.T, probs []byte, budget, extra uint8, seed int64) {
		if len(probs) == 0 || len(probs) > 16 {
			return
		}
		n := len(probs)
		p := make([]float64, n)
		for i, b := range probs {
			p[i] = float64(b) / 255
		}
		b := int(budget % 18)
		pm := &ProbModel{Set: &Set{Units: make([]Unit, n), Budget: b}, P: p}
		kcap := b + 1 + int(extra%20)
		top := min(kcap, n)
		var mass float64
		if top > b {
			pk, _ := pm.CountDist(top)
			for k := b + 1; k <= top; k++ {
				mass += pk[k]
			}
		}
		s, err := pm.NewSampler(seed, b, kcap)
		if (err != nil) != (mass == 0) {
			t.Fatalf("NewSampler(budget %d, kcap %d) over %v: error %v with P(%d < K <= %d) = %g", b, kcap, p, err, b, top, mass)
		}
		if err != nil {
			return
		}
		again, err := pm.NewSampler(seed, b, kcap)
		if err != nil {
			t.Fatal(err)
		}
		var got, want []int
		for d := 0; d < 32; d++ {
			got, want = s.NextUnits(got[:0]), again.NextUnits(want[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("draw %d: %v, then %v on the same seed", d, got, want)
			}
			if len(got) <= b || len(got) > top {
				t.Fatalf("draw %d: %v has %d units, outside (%d, %d]", d, got, len(got), b, top)
			}
			for j, u := range got {
				if u < 0 || u >= n || (j > 0 && u <= got[j-1]) {
					t.Fatalf("draw %d: %v not ascending distinct units of %d", d, got, n)
				}
				if probs[u] == 0 {
					t.Fatalf("draw %d: %v holds unit %d of probability 0", d, got, u)
				}
			}
			for u, pb := range probs {
				if pb == 255 && !slices.Contains(got, u) {
					t.Fatalf("draw %d: %v misses unit %d of probability 1", d, got, u)
				}
			}
		}
	})
}
