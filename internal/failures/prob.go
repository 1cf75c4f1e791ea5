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
//
// A draw is the conditional-Bernoulli walk along the suffix DP: with r
// failures left at unit i, unit i fails with probability
// pf(i, r) = P[i]·P(r−1 fail among i+1..) / P(r fail among i..). The
// sampler does not visit the units one by one; it jumps to the walk's
// next failure J, whose law is P(J > j) = Π_{m=i..j} (1 − pf(m, r)),
// by inverting that survival function with one uniform (DESIGN.md §18,
// "The jump walk").
type Sampler struct {
	pm     *ProbModel
	rng    *rand.Rand
	budget int
	kcap   int
	// logSurv[i*kcap+r-1] = Σ log(1 − pf(m, r)) over the units m ≥ i
	// the walk does not force, r = 1..kcap, i = 0..n (row n is 0): the
	// walk with r failures left passes units i..j, none of them forced,
	// without a failure with probability exp(L(i) − L(j+1)), L(i) the
	// entry for unit i and count r. Nondecreasing in i.
	logSurv []float64
	// forced[i*kcap+r-1] is the first unit m ≥ i the walk forces with r
	// failures left, n if none: pf(m, r) ≥ 1, or P(r fail among m..)
	// is not positive (unreachable along a positive-probability path;
	// the walk places the failure there without drawing).
	forced []int32
	// countCDF[j] = P(K ≤ budget+1+j | budget < K ≤ kcap), cumulative.
	countCDF []float64
	// sampledMass = P(budget < K ≤ kcap).
	sampledMass float64
}

// NewSampler builds a tail sampler for scenarios with failure count in
// (budget, kcap]. It fails if the conditional region has no
// probability mass (e.g. all-zero probabilities, or kcap ≤ budget).
// One backward pass over the units computes the suffix DP a row at a
// time and the walk's tables beside it, in O(units · kcap).
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
	// row[r] = P(exactly r failures among units i..n-1), next the same
	// for units i+1..n-1.
	w := kcap + 1
	row, next := make([]float64, w), make([]float64, w)
	next[0] = 1
	logSurv := make([]float64, (n+1)*kcap)
	forced := make([]int32, (n+1)*kcap)
	for r := range kcap {
		forced[n*kcap+r] = int32(n)
	}
	for i := n - 1; i >= 0; i-- {
		p := pm.P[i]
		if !(p >= 0 && p <= 1) {
			// The walk's tables rely on it: unit n-r is forced with r
			// failures left, so no draw runs past the last unit.
			return nil, fmt.Errorf("failures: unit %d probability %v outside [0,1]", i, p)
		}
		row[0] = (1 - p) * next[0]
		at, below := i*kcap, (i+1)*kcap
		for r := 1; r <= kcap; r++ {
			row[r] = (1-p)*next[r] + p*next[r-1]
			pf := -1.0
			if !(row[r] <= 0) {
				pf = p * next[r-1] / row[r]
			}
			if pf < 0 || pf >= 1 {
				forced[at+r-1] = int32(i)
				logSurv[at+r-1] = logSurv[below+r-1]
			} else {
				forced[at+r-1] = forced[below+r-1]
				logSurv[at+r-1] = logSurv[below+r-1] + math.Log1p(-pf)
			}
		}
		row, next = next, row
	}
	// next now holds unit 0's row: the whole set's count distribution.
	var mass float64
	cdf := make([]float64, kcap-budget)
	for k := budget + 1; k <= kcap; k++ {
		mass += next[k]
		cdf[k-budget-1] = mass
	}
	if mass <= 0 {
		return nil, fmt.Errorf("failures: P(%d < K <= %d) is zero; nothing to sample", budget, kcap)
	}
	for j := range cdf {
		cdf[j] /= mass
	}
	return &Sampler{
		pm:          pm,
		rng:         rand.New(rand.NewSource(seed)),
		budget:      budget,
		kcap:        kcap,
		logSurv:     logSurv,
		forced:      forced,
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
// suffix DP, one uniform per failure: with r failures left from unit i,
// the next failure is the first unit j whose survival
// exp(logSurv[i] − logSurv[j+1]) falls below 1 − u, found by binary
// search, or the next forced unit if none before it does. O(k log n).
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
	kc, i := s.kcap, 0
	for r := k; r > 0; r-- {
		col := r - 1
		// The first j in [i, forced) with logSurv[j+1] > t, else the
		// forced unit itself.
		t := s.logSurv[i*kc+col] - math.Log1p(-s.rng.Float64())
		lo, hi := i, int(s.forced[i*kc+col])
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.logSurv[(mid+1)*kc+col] > t {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		dst = append(dst, lo)
		i = lo + 1
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
