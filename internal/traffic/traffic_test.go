package traffic

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pcf/internal/topology"
)

func ring(n int) *topology.Graph {
	g := topology.New("ring")
	for i := 0; i < n; i++ {
		g.AddNode("n")
	}
	for i := 0; i < n; i++ {
		g.AddLink(topology.NodeID(i), topology.NodeID((i+1)%n), 10)
	}
	return g
}

func TestGravityBasics(t *testing.T) {
	g := ring(5)
	tm := Gravity(g, GravityOptions{Seed: 1, Total: 100})
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(tm.Total()-100) > 1e-9 {
		t.Fatalf("total = %g, want 100", tm.Total())
	}
	// Symmetric masses on a symmetric ring with no jitter: all demands equal.
	tm0 := Gravity(g, GravityOptions{Seed: 1, Total: 100, Jitter: 0})
	first := tm0.Demand[0][1]
	for s := 0; s < 5; s++ {
		for d := 0; d < 5; d++ {
			if s != d && math.Abs(tm0.Demand[s][d]-first) > 1e-9 {
				t.Fatalf("unjittered ring demands not uniform: %g vs %g", tm0.Demand[s][d], first)
			}
		}
	}
}

func TestGravitySeedsDiffer(t *testing.T) {
	g := ring(6)
	a := Gravity(g, GravityOptions{Seed: 1, Jitter: 0.4, Total: 10})
	b := Gravity(g, GravityOptions{Seed: 2, Jitter: 0.4, Total: 10})
	same := true
	for s := 0; s < 6 && same; s++ {
		for d := 0; d < 6; d++ {
			if math.Abs(a.Demand[s][d]-b.Demand[s][d]) > 1e-12 {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical matrices")
	}
	// Same seed reproduces exactly.
	c := Gravity(g, GravityOptions{Seed: 1, Jitter: 0.4, Total: 10})
	for s := 0; s < 6; s++ {
		for d := 0; d < 6; d++ {
			if math.Float64bits(a.Demand[s][d]) != math.Float64bits(c.Demand[s][d]) {
				t.Fatal("same seed not reproducible")
			}
		}
	}
}

func TestScale(t *testing.T) {
	g := ring(4)
	tm := Gravity(g, GravityOptions{Seed: 3, Total: 8})
	tm2 := tm.Scale(2.5)
	if math.Abs(tm2.Total()-20) > 1e-9 {
		t.Fatalf("scaled total = %g", tm2.Total())
	}
	//lint:ignore pcflint/floatcmp total of the small integer demands is exact; Scale must not have touched them
	if tm.Total() != 8 {
		t.Fatal("Scale mutated the receiver")
	}
}

func TestPairsSortedByDemand(t *testing.T) {
	m := NewMatrix(3)
	m.Demand[0][1] = 5
	m.Demand[1][2] = 9
	m.Demand[2][0] = 1
	pairs := m.Pairs(0)
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	if pairs[0] != (topology.Pair{Src: 1, Dst: 2}) {
		t.Fatalf("first pair %v", pairs[0])
	}
	if pairs[2] != (topology.Pair{Src: 2, Dst: 0}) {
		t.Fatalf("last pair %v", pairs[2])
	}
	top := m.TopPairs(2)
	if len(top) != 2 || top[0] != (topology.Pair{Src: 1, Dst: 2}) {
		t.Fatalf("top pairs %v", top)
	}
}

// TestTopPairsMatchesFullSort: the bounded-heap selection returns
// exactly the prefix of the full sort, on seeded matrices whose demands
// are quantized so that many pairs tie and the (src, dst) tie-break
// decides who makes the cut.
func TestTopPairsMatchesFullSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(9)
		m := NewMatrix(nodes)
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				if s != d && rng.Intn(4) > 0 {
					m.Demand[s][d] = float64(rng.Intn(4)) // 0 drops the pair, 1–3 tie often
				}
			}
		}
		full := m.Pairs(0)
		n := len(full)
		for _, k := range []int{0, 1, n - 1, n, n + 3} {
			want := full
			if k > 0 && k < n {
				want = full[:k]
			}
			got := m.TopPairs(k)
			if len(got) != len(want) {
				t.Fatalf("seed %d, k=%d of %d: %d pairs, want %d", seed, k, n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d, k=%d of %d: pair[%d] = %v (demand %g), full sort has %v (demand %g)",
						seed, k, n, i, got[i], m.At(got[i]), want[i], m.At(want[i]))
				}
			}
		}
	}
}

// TestPairsIntoMatchesPairs: the pairs into each destination, read from
// its column, are Pairs(0)'s pairs with that destination in Pairs'
// order, appended after what out held; on seeded matrices with many
// ties.
func TestPairsIntoMatchesPairs(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(9)
		m := NewMatrix(nodes)
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				if rng.Intn(4) > 0 {
					m.Demand[s][d] = float64(rng.Intn(4)) // the diagonal too: it is never a pair
				}
			}
		}
		full := m.Pairs(0)
		held := []topology.Pair{{Src: 9, Dst: 9}}
		for dst := 0; dst < nodes; dst++ {
			want := slices.DeleteFunc(slices.Clone(full), func(p topology.Pair) bool { return int(p.Dst) != dst })
			got := m.AppendPairsInto(slices.Clone(held), topology.NodeID(dst))
			if !slices.Equal(got[:1], held) || !slices.Equal(got[1:], want) {
				t.Fatalf("seed %d, into %d: %v after %v, want %v", seed, dst, got[1:], got[:1], want)
			}
		}
	}
}

// TestPairsIntoEachMatchesPairsInto: the pairs into ascending
// destinations, listed in one pass over the rows, are each
// destination's AppendPairsInto pairs one destination after the other,
// appended after what out held; on seeded matrices with many ties,
// some rows shorter than the destinations they are read at.
func TestPairsIntoEachMatchesPairsInto(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 2 + rng.Intn(9)
		m := NewMatrix(nodes)
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				if rng.Intn(4) > 0 {
					m.Demand[s][d] = float64(rng.Intn(4))
				}
			}
		}
		if seed%4 == 0 {
			m.Demand[rng.Intn(nodes)] = m.Demand[rng.Intn(nodes)][:rng.Intn(nodes)]
		}
		var dsts []topology.NodeID
		for d := 0; d < nodes; d++ {
			if rng.Intn(2) == 0 {
				dsts = append(dsts, topology.NodeID(d))
			}
		}
		held := []topology.Pair{{Src: 9, Dst: 9}}
		want := slices.Clone(held)
		for _, d := range dsts {
			want = m.AppendPairsInto(want, d)
		}
		if got := m.AppendPairsIntoEach(slices.Clone(held), dsts); !slices.Equal(got, want) {
			t.Fatalf("seed %d, into %v: %v, want %v", seed, dsts, got, want)
		}
	}
}

func TestRestrict(t *testing.T) {
	m := NewMatrix(3)
	m.Demand[0][1] = 5
	m.Demand[1][2] = 9
	r := m.Restrict([]topology.Pair{{Src: 0, Dst: 1}})
	//lint:ignore pcflint/floatcmp Restrict copies stored literals verbatim
	if r.Demand[0][1] != 5 || r.Demand[1][2] != 0 {
		t.Fatalf("restrict wrong: %v", r.Demand)
	}
}

func TestUniformAndSingle(t *testing.T) {
	g := ring(3)
	u := Uniform(g, 2)
	//lint:ignore pcflint/floatcmp sum of 6 integer demands of 2 is exact
	if u.Total() != 12 {
		t.Fatalf("uniform total = %g", u.Total())
	}
	s := Single(3, topology.Pair{Src: 0, Dst: 2}, 7)
	//lint:ignore pcflint/floatcmp a single stored literal, read back unmodified
	if s.Total() != 7 || s.At(topology.Pair{Src: 0, Dst: 2}) != 7 {
		t.Fatal("single wrong")
	}
}

func TestValidateCatchesBadMatrices(t *testing.T) {
	m := NewMatrix(2)
	m.Demand[0][1] = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative demand not caught")
	}
	m2 := NewMatrix(2)
	m2.Demand[1][1] = 3
	if err := m2.Validate(); err == nil {
		t.Fatal("self demand not caught")
	}
}

func TestReadMatrix(t *testing.T) {
	input := "# tm\n0 1 5\n1 2 3.5\n"
	m, err := ReadMatrix(strings.NewReader(input), 3)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore pcflint/floatcmp parsed literals 5 and 3.5 are exactly representable
	if m.Demand[0][1] != 5 || m.Demand[1][2] != 3.5 {
		t.Fatalf("parsed wrong: %v", m.Demand)
	}
	if _, err := ReadMatrix(strings.NewReader("0 9 1\n"), 3); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := ReadMatrix(strings.NewReader("1 1 4\n"), 3); err == nil {
		t.Fatal("self demand accepted")
	}
}

// TestValidPairsIsValidateAndPairs: the one-pass ValidPairs lists what
// Pairs(0) lists, in its order, and refuses what Validate refuses.
func TestValidPairsIsValidateAndPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(9)
		m := NewMatrix(n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d && rng.Intn(3) > 0 {
					m.Demand[s][d] = float64(rng.Intn(4)) // repeats exercise the tiebreak
				}
			}
		}
		switch rng.Intn(6) {
		case 0:
			m.Demand[rng.Intn(n)][rng.Intn(n)] = -1
		case 1:
			i := rng.Intn(n)
			m.Demand[i][i] = 2
		}
		got, err := m.ValidPairs()
		if want := m.Validate(); (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
			t.Fatalf("trial %d: ValidPairs error %v, Validate %v", trial, err, want)
		}
		if err != nil {
			continue
		}
		if want := m.Pairs(0); !slices.Equal(got, want) {
			t.Fatalf("trial %d: ValidPairs %v, Pairs(0) %v", trial, got, want)
		}
	}
}
