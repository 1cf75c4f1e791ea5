package failures

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"time"

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
	for _, bad := range []float64{math.NaN(), -0.1, 1.5} {
		pm := &ProbModel{Set: zero.Set, P: []float64{0.5, bad, 0.5, 0.5}}
		if _, err := pm.NewSampler(1, 1, 3); err == nil {
			t.Fatalf("unit probability %v accepted", bad)
		}
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

// ringChords is a 12-unit model with unequal probabilities, a unit that
// never fails (3) and one that always does (7).
func ringChords() *ProbModel {
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
	return &ProbModel{Set: fs, P: p}
}

// fiveSigmaTail is the normal law's one-sided tail beyond 5σ.
const fiveSigmaTail = 2.87e-7

// countTail is the probability that a count of draws successes at rate q
// lies at least as far from draws·q as c, on c's side: the normal
// approximation for a mean of 100 or more, the Poisson law's exact tail
// below it, where a rare combination drawn once would be many σ out.
func countTail(draws int, q float64, c int) float64 {
	mean := float64(draws) * q
	if mean >= 100 {
		z := math.Abs(float64(c)-mean) / math.Sqrt(mean*(1-q))
		return math.Erfc(z/math.Sqrt2) / 2
	}
	pmf, below := math.Exp(-mean), 0.0 // P(X = j), P(X < j)
	for j := 0; j < c; j++ {
		below += pmf
		pmf *= mean / float64(j+1)
	}
	return min(below+pmf, 1-below)
}

// The jump walk draws the conditional tail exactly: on the ring+chords
// model and a uniform one, budgets 0–2, kcap 6 and one kcap above the
// unit count (clamped), every unit combination's count over 2·10⁵ draws
// lies within 5σ of its mean given budget < K ≤ kcap (countTail), the
// probabilities computed by enumerating all 2¹² combinations, and no
// combination of probability zero is ever drawn.
func TestSamplerMatchesExactTail(t *testing.T) {
	rc := ringChords()
	uni, err := Uniform(rc.Set, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name string
		pm   *ProbModel
	}{{"ring+chords", rc}, {"uniform", uni}}
	const draws = 200_000
	for _, m := range models {
		name, pm := m.name, m.pm
		n := len(pm.P)
		for budget := 0; budget <= 2; budget++ {
			for _, kcap := range []int{6, n + 5} {
				s, err := pm.NewSampler(int64(1+budget), budget, kcap)
				if err != nil {
					t.Fatal(err)
				}
				// exact[mask] = P(exactly the units in mask fail), kept
				// for masks whose size lies in (budget, kcap].
				top := min(kcap, n)
				exact := make([]float64, 1<<n)
				var mass float64
				for mask := range exact {
					if k := bits.OnesCount(uint(mask)); k <= budget || k > top {
						continue
					}
					pr := 1.0
					for u, p := range pm.P {
						if mask&(1<<u) != 0 {
							pr *= p
						} else {
							pr *= 1 - p
						}
					}
					exact[mask] = pr
					mass += pr
				}
				seen := make([]int, 1<<n)
				var units []int
				for range draws {
					units = s.NextUnits(units[:0])
					mask := 0
					for j, u := range units {
						if j > 0 && u <= units[j-1] {
							t.Fatalf("%s budget %d kcap %d: draw %v not ascending", name, budget, kcap, units)
						}
						mask |= 1 << u
					}
					seen[mask]++
				}
				least, drawn := 1.0, 0
				for mask, c := range seen {
					q := exact[mask] / mass
					if q == 0 {
						if c > 0 {
							t.Fatalf("%s budget %d kcap %d: combination %012b of probability 0 drawn %d times", name, budget, kcap, mask, c)
						}
						continue
					}
					if c > 0 {
						drawn++
					}
					tail := countTail(draws, q, c)
					if tail < fiveSigmaTail {
						t.Fatalf("%s budget %d kcap %d: combination %012b drawn %d times, expected %.2f (tail probability %.2g)", name, budget, kcap, mask, c, draws*q, tail)
					}
					least = min(least, tail)
				}
				t.Logf("%s budget %d kcap %d: %d combinations drawn, least tail probability %.2g", name, budget, kcap, drawn, least)
			}
		}
	}
}

// BenchmarkSamplerDraw times the sampler of the 1 000-node benchmark
// plan's sampled request: 2 000 units at p = 0.01, budget 1, kcap 9.
// One op builds a sampler and draws 1 000 combinations; build_us and
// ns/draw split the op.
func BenchmarkSamplerDraw(b *testing.B) {
	pm, err := Uniform(&Set{Units: make([]Unit, 2000), Budget: 1}, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	const draws = 1000
	var build, draw time.Duration
	var units []int
	for i := 0; i < b.N; i++ {
		start := time.Now()
		s, err := pm.NewSampler(int64(i+1), 1, 9)
		if err != nil {
			b.Fatal(err)
		}
		built := time.Now()
		for range draws {
			units = s.NextUnits(units[:0])
		}
		draw += time.Since(built)
		build += built.Sub(start)
	}
	b.ReportMetric(float64(build.Microseconds())/float64(b.N), "build_us")
	b.ReportMetric(float64(draw.Nanoseconds())/float64(draws*b.N), "ns/draw")
}
