package failures

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pcf/internal/topology"
)

// CountDist against the closed-form binomial for uniform p.
func TestCountDistMatchesBinomial(t *testing.T) {
	g := square()
	pm, err := Uniform(SingleLinks(g, 1), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	pk, over := pm.CountDist(4)
	n, p := 4, 0.25
	var sum float64
	for k := 0; k <= n; k++ {
		c, _ := binomial(n, k)
		want := float64(c) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
		if math.Abs(pk[k]-want) > 1e-12 {
			t.Fatalf("P(K=%d) = %g, want %g", k, pk[k], want)
		}
		sum += pk[k]
	}
	if over > 1e-15 {
		t.Fatalf("overflow mass %g with kcap=n", over)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("distribution sums to %g", sum)
	}
}

func TestTailMassComplement(t *testing.T) {
	g := square()
	pm, err := Uniform(SingleLinks(g, 1), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// P(K > 1) = 1 - (1-p)^4 - 4p(1-p)^3 for n=4.
	p := 0.1
	want := 1 - math.Pow(1-p, 4) - 4*p*math.Pow(1-p, 3)
	if got := pm.TailMass(1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("TailMass = %g, want %g", got, want)
	}
}

func TestProbModelValidation(t *testing.T) {
	g := square()
	fs := SingleLinks(g, 1)
	if _, err := Uniform(fs, -0.1); err == nil {
		t.Fatal("negative probability accepted")
	}
	if _, err := Uniform(fs, math.NaN()); err == nil {
		t.Fatal("NaN probability accepted")
	}
	if _, err := Uniform(fs, 1.5); err == nil {
		t.Fatal("probability > 1 accepted")
	}
}

// Sampler draws land in (budget, kcap], respect unit membership, and
// the empirical count distribution matches the conditional DP weights.
func TestSamplerConditionalTail(t *testing.T) {
	g := square()
	fs := SingleLinks(g, 1)
	pm, err := Uniform(fs, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pm.NewSampler(7, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	const draws = 4000
	for i := 0; i < draws; i++ {
		sc := s.Next()
		k := len(sc.FailedUnits)
		if k <= 1 || k > 3 {
			t.Fatalf("draw %d: count %d outside (1,3]", i, k)
		}
		if len(sc.Dead) != k {
			t.Fatalf("draw %d: %d dead links for %d single-link units", i, len(sc.Dead), k)
		}
		counts[k]++
	}
	// Conditional weights from the DP itself.
	pk, _ := pm.CountDist(3)
	z := pk[2] + pk[3]
	for k := 2; k <= 3; k++ {
		want := pk[k] / z
		got := float64(counts[k]) / draws
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("P(K=%d|tail): empirical %.3f, dp %.3f", k, got, want)
		}
	}
}

// Same seed ⇒ byte-identical draw sequence; different seed ⇒ a
// different sequence.
func TestSamplerSeedDeterminism(t *testing.T) {
	g := square()
	pm, err := Uniform(SingleLinks(g, 1), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) string {
		s, err := pm.NewSampler(seed, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for i := 0; i < 50; i++ {
			out += s.Next().String() + "\n"
		}
		return out
	}
	if draw(1) != draw(1) {
		t.Fatal("same seed produced different draws")
	}
	if draw(1) == draw(2) {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestSamplerRejectsEmptyTail(t *testing.T) {
	g := square()
	pm, err := Uniform(SingleLinks(g, 1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pm.NewSampler(1, 3, 3); err == nil {
		t.Fatal("kcap <= budget accepted")
	}
	if _, err := pm.NewSampler(1, 4, 9); err == nil {
		t.Fatal("budget >= units accepted")
	}
	zero, err := Uniform(SingleLinks(g, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zero.NewSampler(1, 1, 3); err == nil {
		t.Fatal("zero-mass tail accepted")
	}
}

func TestCoverageEpsilon(t *testing.T) {
	c := Coverage{
		Model:          "sampled",
		Budget:         1,
		TailMass:       0.02,
		SampledMass:    0.019,
		TruncatedMass:  0.001,
		Samples:        100,
		SampleFailures: 0,
		Delta:          0.01,
	}
	c.ComputeEpsilon()
	// F=0: rate = 1 - delta^{1/N} (tighter than Hoeffding here).
	rate := 1 - math.Pow(0.01, 1.0/100)
	want := 0.019*rate + 0.001
	if math.Abs(c.Epsilon-want) > 1e-12 {
		t.Fatalf("epsilon = %g, want %g", c.Epsilon, want)
	}
	// With failures the Hoeffding term applies and epsilon grows.
	c2 := c
	c2.SampleFailures = 10
	c2.ComputeEpsilon()
	if c2.Epsilon <= c.Epsilon {
		t.Fatalf("epsilon with failures %g not above %g", c2.Epsilon, c.Epsilon)
	}
	// No samples at all: the whole tail is unvalidated.
	c3 := c
	c3.Samples = 0
	c3.ComputeEpsilon()
	if math.Abs(c3.Epsilon-c.TailMass) > 1e-15 {
		t.Fatalf("no-sample epsilon = %g, want tail mass %g", c3.Epsilon, c.TailMass)
	}
	if c.String() == "" || len(c.Metrics()) < 8 {
		t.Fatal("coverage report rendering is empty")
	}
}

// Epsilon shrinks as samples grow: more evidence, tighter bound.
func TestCoverageEpsilonMonotoneInSamples(t *testing.T) {
	prev := math.Inf(1)
	for _, n := range []int{10, 100, 1000} {
		c := Coverage{TailMass: 0.05, SampledMass: 0.05, Samples: n, Delta: 0.05}
		c.ComputeEpsilon()
		if c.Epsilon >= prev {
			t.Fatalf("epsilon %g at n=%d not below %g", c.Epsilon, n, prev)
		}
		prev = c.Epsilon
	}
}

// Draw many tail samples and check their empirical per-unit marginals
// stay consistent with conditioning (a smoke test that the
// conditional-Bernoulli walk is not biased toward low indices).
func TestSamplerUnitMarginalsUniform(t *testing.T) {
	g := square()
	pm, err := Uniform(SingleLinks(g, 1), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pm.NewSampler(42, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	hits := make([]int, 4)
	const draws = 4000
	for i := 0; i < draws; i++ {
		for _, u := range s.Next().FailedUnits {
			hits[u]++
		}
	}
	// Symmetric model: every unit should appear equally often (2/4 of
	// draws with K=2 exactly).
	for u, h := range hits {
		frac := float64(h) / draws
		if math.Abs(frac-0.5) > 0.03 {
			t.Fatalf("unit %d marginal %.3f, want 0.5", u, frac)
		}
	}
	if fmt.Sprint(hits) == "[0 0 0 0]" {
		t.Fatal("no draws recorded")
	}
}

// referenceNext is Sampler.Next as it walked the suffix DP table before
// the walk's probabilities were precomputed: the count draw, then per
// unit P[i]·suffix[i+1][r-1]/suffix[i][r], forcing the unit without a
// draw where the denominator is not positive.
func referenceNext(s *Sampler, rng *rand.Rand, suffix [][]float64) []int {
	u := rng.Float64()
	k := s.budget + 1
	for j, c := range s.countCDF {
		if u <= c {
			k = s.budget + 1 + j
			break
		}
		if j == len(s.countCDF)-1 {
			k = s.kcap
		}
	}
	combo := make([]int, 0, k)
	r := k
	for i := 0; i < len(s.pm.P) && r > 0; i++ {
		denom := suffix[i][r]
		if denom <= 0 {
			combo = append(combo, i)
			r--
			continue
		}
		pf := s.pm.P[i] * suffix[i+1][r-1] / denom
		if rng.Float64() < pf {
			combo = append(combo, i)
			r--
		}
	}
	sort.Ints(combo)
	return combo
}

// referenceSuffix is the suffix DP table NewSampler builds:
// suffix[i][r] = P(exactly r failures among units i..n-1).
func referenceSuffix(p []float64, kcap int) [][]float64 {
	n := len(p)
	suffix := make([][]float64, n+1)
	suffix[n] = make([]float64, kcap+1)
	suffix[n][0] = 1
	for i := n - 1; i >= 0; i-- {
		row := make([]float64, kcap+1)
		row[0] = (1 - p[i]) * suffix[i+1][0]
		for r := 1; r <= kcap; r++ {
			row[r] = (1-p[i])*suffix[i+1][r] + p[i]*suffix[i+1][r-1]
		}
		suffix[i] = row
	}
	return suffix
}

// The precomputed walk draws what the table walk drew: the first 1 000
// scenarios for seeds 1–3 on a model with unequal probabilities, a unit
// that never fails (its counts carry no mass, so the walk forces units
// past it) and one that always does.
func TestSamplerMatchesTableWalk(t *testing.T) {
	g := topology.New("ring+chords")
	for i := 0; i < 6; i++ {
		g.AddNode("n")
	}
	for i := 0; i < 6; i++ {
		g.AddLink(topology.NodeID(i), topology.NodeID((i+1)%6), 10)
		g.AddLink(topology.NodeID(i), topology.NodeID((i+3)%6), 10)
	}
	fs := SingleLinks(g, 1)
	p := make([]float64, len(fs.Units))
	for i := range p {
		p[i] = 0.02 + 0.05*float64(i%5)
	}
	p[3], p[7] = 0, 1
	pm := &ProbModel{Set: fs, P: p}
	for seed := int64(1); seed <= 3; seed++ {
		s, err := pm.NewSampler(seed, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		suffix := referenceSuffix(p, s.kcap)
		for i := 0; i < 1000; i++ {
			got, want := s.Next().FailedUnits, referenceNext(s, rng, suffix)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d draw %d: %v, table walk %v", seed, i, got, want)
			}
		}
	}
}
