package failures

// Probabilistic scenario model: independent per-unit failure
// probabilities over a Set's units. Exhaustive validation covers every
// scenario with at most Budget failed units; this file quantifies the
// rest. The failure count K is Poisson-binomial, its distribution is
// computed by exact dynamic programming, and scenarios with K > Budget
// are sampled from the conditional tail with a seeded, deterministic
// sampler so validation can report an explicit coverage bound
// ("P(unvalidated scenario) ≤ ε at confidence 1−δ") instead of
// silently truncating. DESIGN.md §18 derives the bound.

import (
	"fmt"
	"math"
	"math/rand"
)

// ProbModel attaches independent failure probabilities to a Set's
// units. P[i] is the probability that Units[i] fails, independently of
// the others.
type ProbModel struct {
	Set *Set
	P   []float64
}

// Uniform builds a ProbModel where every unit fails with the same
// probability p ∈ [0,1].
func Uniform(fs *Set, p float64) (*ProbModel, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("failures: unit probability %v outside [0,1]", p)
	}
	ps := make([]float64, len(fs.Units))
	for i := range ps {
		ps[i] = p
	}
	return &ProbModel{Set: fs, P: ps}, nil
}

// CountDist returns the Poisson-binomial distribution of the failure
// count K truncated at kcap: pk[k] = P(K = k) for k = 0..kcap, and
// over = P(K > kcap). Exact DP in O(units · kcap).
func (pm *ProbModel) CountDist(kcap int) (pk []float64, over float64) {
	if kcap < 0 {
		kcap = 0
	}
	pk = make([]float64, kcap+1)
	pk[0] = 1
	for _, p := range pm.P {
		// Mass leaving the top bucket joins the overflow for good: once
		// K exceeds kcap it can only grow.
		over += pk[kcap] * p
		for k := kcap; k >= 1; k-- {
			pk[k] = pk[k]*(1-p) + pk[k-1]*p
		}
		pk[0] *= (1 - p)
	}
	return pk, over
}

// TailMass returns P(K > f), the probability that more units fail than
// the set's validation budget covers.
func (pm *ProbModel) TailMass(f int) float64 {
	_, over := pm.CountDist(f)
	return over
}

// Sampler draws scenarios conditioned on the failure count lying in
// (budget, kcap] — the tail that exhaustive validation misses, up to a
// truncation point whose leftover mass is reported explicitly rather
// than hidden. The stream is fully determined by the seed.
type Sampler struct {
	pm     *ProbModel
	rng    *rand.Rand
	budget int
	kcap   int
	// pf[i*kcap+r-1] = P(unit i fails | exactly r of units i..n-1
	// fail), r = 1..kcap: the conditional-Bernoulli unit draw's walk,
	// computed once from the suffix DP table (NewSampler). A negative
	// entry marks a count the suffix gives no mass; the walk forces
	// that unit without drawing.
	pf []float64
	// countCDF[j] = P(K ≤ budget+1+j | budget < K ≤ kcap), cumulative.
	countCDF []float64
	// sampledMass = P(budget < K ≤ kcap).
	sampledMass float64
}

// NewSampler builds a tail sampler for scenarios with failure count in
// (budget, kcap]. It fails if the conditional region has no
// probability mass (e.g. all-zero probabilities, or kcap ≤ budget).
func (pm *ProbModel) NewSampler(seed int64, budget, kcap int) (*Sampler, error) {
	n := len(pm.P)
	if kcap <= budget {
		return nil, fmt.Errorf("failures: sampler kcap %d must exceed budget %d", kcap, budget)
	}
	if kcap > n {
		kcap = n
	}
	if kcap <= budget {
		return nil, fmt.Errorf("failures: budget %d admits no tail over %d units", budget, n)
	}
	// suffix[i*w+r] = P(exactly r failures among units i..n-1), one
	// row of w = kcap+1 counts per unit, flat.
	w := kcap + 1
	suffix := make([]float64, (n+1)*w)
	suffix[n*w] = 1
	for i := n - 1; i >= 0; i-- {
		p, row, next := pm.P[i], suffix[i*w:(i+1)*w], suffix[(i+1)*w:(i+2)*w]
		row[0] = (1 - p) * next[0]
		for r := 1; r <= kcap; r++ {
			row[r] = (1-p)*next[r] + p*next[r-1]
		}
	}
	var mass float64
	cdf := make([]float64, kcap-budget)
	for k := budget + 1; k <= kcap; k++ {
		mass += suffix[k]
		cdf[k-budget-1] = mass
	}
	if mass <= 0 {
		return nil, fmt.Errorf("failures: P(%d < K <= %d) is zero; nothing to sample", budget, kcap)
	}
	for j := range cdf {
		cdf[j] /= mass
	}
	pf := make([]float64, n*kcap)
	for i := 0; i < n; i++ {
		for r := 1; r <= kcap; r++ {
			v := -1.0
			if denom := suffix[i*w+r]; !(denom <= 0) {
				v = pm.P[i] * suffix[(i+1)*w+r-1] / denom
			}
			pf[i*kcap+r-1] = v
		}
	}
	return &Sampler{
		pm:          pm,
		rng:         rand.New(rand.NewSource(seed)),
		budget:      budget,
		kcap:        kcap,
		pf:          pf,
		countCDF:    cdf,
		sampledMass: mass,
	}, nil
}

// SampledMass returns P(budget < K ≤ kcap), the probability mass the
// sampler's draws represent.
func (s *Sampler) SampledMass() float64 { return s.sampledMass }

// Next draws one scenario from the conditional tail: the scenario of
// NextUnits' draw.
func (s *Sampler) Next() Scenario {
	return s.pm.Set.ScenarioOf(s.NextUnits(nil))
}

// NextUnits draws one unit combination from the conditional tail and
// appends it, ascending, to dst. Draws are i.i.d. given the seed: first
// the failure count k from P(K = k | budget < K ≤ kcap), then a unit
// subset of exactly size k by conditional Bernoulli sampling along the
// suffix DP table, which visits the units in ascending order.
func (s *Sampler) NextUnits(dst []int) []int {
	u := s.rng.Float64()
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
	r := k
	for i := 0; i < len(s.pm.P) && r > 0; i++ {
		// P(unit i fails | exactly r failures remain among i..n-1).
		pf := s.pf[i*s.kcap+r-1]
		if pf < 0 {
			// Unreachable along a positive-probability path; fall back
			// to forcing the remaining failures deterministically.
			dst = append(dst, i)
			r--
			continue
		}
		if s.rng.Float64() < pf {
			dst = append(dst, i)
			r--
		}
	}
	return dst
}

// Coverage is the explicit validation-coverage report for a
// probabilistic scenario model: which mass was exhaustively validated,
// which was sampled, what was truncated, and the resulting bound
// "P(a failure scenario occurs that validation has not covered) ≤
// Epsilon with confidence 1−Delta".
type Coverage struct {
	// Model names the scenario model ("exact" or "sampled").
	Model string `json:"model"`
	// Budget is the exhaustive enumeration budget f.
	Budget int `json:"budget"`
	// Exhaustive counts exhaustively validated scenarios.
	Exhaustive int64 `json:"exhaustive"`
	// ExhaustiveMass = P(K ≤ Budget), fully validated.
	ExhaustiveMass float64 `json:"exhaustive_mass"`
	// TailMass = P(K > Budget).
	TailMass float64 `json:"tail_mass"`
	// SampledMass = P(Budget < K ≤ KCap), the region samples cover.
	SampledMass float64 `json:"sampled_mass"`
	// TruncatedMass = P(K > KCap); never sampled, counted fully
	// against Epsilon rather than silently dropped.
	TruncatedMass float64 `json:"truncated_mass"`
	// KCap is the sampler's count truncation point: the one requested,
	// or the unit count when that is smaller.
	KCap int `json:"kcap"`
	// Samples and SampleFailures are the tail draws and how many of
	// them violated the congestion-free check.
	Samples        int `json:"samples"`
	SampleFailures int `json:"sample_failures"`
	// Delta: the bound holds with confidence 1−Delta.
	Delta float64 `json:"delta"`
	// Epsilon bounds the probability that a scenario occurs which
	// validation neither enumerated nor statistically covered.
	Epsilon float64 `json:"epsilon"`
	// Seed is the sampler seed, recorded so reports are reproducible.
	Seed int64 `json:"seed"`
}

// ComputeEpsilon fills Epsilon from the sampling outcome. With N
// i.i.d. tail samples and F observed violations, the tail violation
// rate q satisfies q ≤ F/N + sqrt(ln(1/δ)/(2N)) with confidence 1−δ
// (one-sided Hoeffding); for F = 0 the exact binomial bound 1−δ^{1/N}
// is tighter and is used instead. Scenarios beyond KCap were never
// sampled, so their whole mass counts:
//
//	ε = SampledMass·rateUB + TruncatedMass
//
// With no samples at all, the entire tail is unvalidated and
// ε = TailMass.
func (c *Coverage) ComputeEpsilon() {
	if c.Samples <= 0 {
		c.Epsilon = c.TailMass
		return
	}
	n := float64(c.Samples)
	rate := float64(c.SampleFailures)/n + math.Sqrt(math.Log(1/c.Delta)/(2*n))
	if c.SampleFailures == 0 {
		if exact := 1 - math.Pow(c.Delta, 1/n); exact < rate {
			rate = exact
		}
	}
	if rate > 1 {
		rate = 1
	}
	c.Epsilon = c.SampledMass*rate + c.TruncatedMass
}

// String renders the bound the way operators read it.
func (c Coverage) String() string {
	return fmt.Sprintf(
		"model=%s budget=%d exhaustive=%d (mass %.6g) samples=%d failures=%d kcap=%d truncated=%.3g: P(unvalidated scenario) <= %.6g at %.4g%% confidence (seed %d)",
		c.Model, c.Budget, c.Exhaustive, c.ExhaustiveMass,
		c.Samples, c.SampleFailures, c.KCap, c.TruncatedMass,
		c.Epsilon, 100*(1-c.Delta), c.Seed)
}

// Metrics flattens the coverage report into telemetry fields, the
// repo-wide stats vocabulary (DESIGN.md §16).
func (c Coverage) Metrics() map[string]float64 {
	return map[string]float64{
		"coverage_budget":     float64(c.Budget),
		"coverage_exhaustive": float64(c.Exhaustive),
		"exhaustive_mass":     c.ExhaustiveMass,
		"tail_mass":           c.TailMass,
		"sampled_mass":        c.SampledMass,
		"truncated_mass":      c.TruncatedMass,
		"coverage_kcap":       float64(c.KCap),
		"samples":             float64(c.Samples),
		"sample_failures":     float64(c.SampleFailures),
		"delta":               c.Delta,
		"epsilon":             c.Epsilon,
	}
}
