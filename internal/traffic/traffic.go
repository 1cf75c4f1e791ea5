// Package traffic generates and manipulates traffic matrices. The
// paper's evaluation uses gravity-model matrices [Zhang et al.] scaled
// so that the optimal no-failure maximum link utilization (MLU) lands
// in [0.6, 0.63]; Gravity plus mcf.ScaleToMLU reproduce that recipe.
package traffic

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"pcf/internal/topology"
)

// Matrix is a dense traffic matrix: Demand[s][t] is the offered load
// from node s to node t.
type Matrix struct {
	Demand [][]float64
}

// NewMatrix returns an all-zero n x n matrix.
func NewMatrix(n int) *Matrix {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	return &Matrix{Demand: d}
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return len(m.Demand) }

// At returns the demand for a pair.
func (m *Matrix) At(p topology.Pair) float64 { return m.Demand[p.Src][p.Dst] }

// Set sets the demand for a pair.
func (m *Matrix) Set(p topology.Pair, v float64) { m.Demand[p.Src][p.Dst] = v }

// Total returns the sum of all demands.
func (m *Matrix) Total() float64 {
	total := 0.0
	for _, row := range m.Demand {
		for _, v := range row {
			total += v
		}
	}
	return total
}

// Scale returns a copy with every demand multiplied by k.
func (m *Matrix) Scale(k float64) *Matrix {
	out := NewMatrix(m.N())
	for i, row := range m.Demand {
		for j, v := range row {
			out.Demand[i][j] = v * k
		}
	}
	return out
}

// Pairs returns the pairs with demand above threshold, sorted by
// descending demand (deterministic tiebreak on pair order).
func (m *Matrix) Pairs(threshold float64) []topology.Pair {
	var out []topology.Pair
	for s := range m.Demand {
		for t, v := range m.Demand[s] {
			if s != t && v > threshold {
				out = append(out, topology.Pair{Src: topology.NodeID(s), Dst: topology.NodeID(t)})
			}
		}
	}
	sortPairsByDemand(out, m)
	return out
}

// TopPairs returns the k highest-demand pairs (all pairs if k <= 0 or
// k exceeds the number of positive-demand pairs), in Pairs' order. It
// keeps the k best seen so far in a heap with the worst on top, so a
// synthetic topology's ~n² positive pairs cost one comparison each
// rather than a full sort.
func (m *Matrix) TopPairs(k int) []topology.Pair {
	if k <= 0 {
		return m.Pairs(0)
	}
	top := &worstFirst{m: m}
	for s := range m.Demand {
		for t, v := range m.Demand[s] {
			if s == t || v <= 0 {
				continue
			}
			p := topology.Pair{Src: topology.NodeID(s), Dst: topology.NodeID(t)}
			if len(top.pairs) < k {
				heap.Push(top, p)
			} else if m.before(p, top.pairs[0]) {
				top.pairs[0] = p
				heap.Fix(top, 0)
			}
		}
	}
	sortPairsByDemand(top.pairs, m)
	return top.pairs
}

// worstFirst is a heap of pairs whose root is the last under m.before.
type worstFirst struct {
	m     *Matrix
	pairs []topology.Pair
}

func (h *worstFirst) Len() int           { return len(h.pairs) }
func (h *worstFirst) Less(i, j int) bool { return h.m.before(h.pairs[j], h.pairs[i]) }
func (h *worstFirst) Swap(i, j int)      { h.pairs[i], h.pairs[j] = h.pairs[j], h.pairs[i] }
func (h *worstFirst) Push(p any)         { h.pairs = append(h.pairs, p.(topology.Pair)) }
func (h *worstFirst) Pop() any {
	p := h.pairs[len(h.pairs)-1]
	h.pairs = h.pairs[:len(h.pairs)-1]
	return p
}

// before is the order of Pairs: descending demand, then source, then
// destination. It is total, so an unstable sort under it is still
// deterministic.
func (m *Matrix) before(a, b topology.Pair) bool {
	if da, db := m.At(a), m.At(b); da > db || da < db {
		return da > db
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

func sortPairsByDemand(pairs []topology.Pair, m *Matrix) {
	sort.Slice(pairs, func(i, j int) bool { return m.before(pairs[i], pairs[j]) })
}

// Restrict zeroes all demands not in keep and returns the copy.
func (m *Matrix) Restrict(keep []topology.Pair) *Matrix {
	out := NewMatrix(m.N())
	for _, p := range keep {
		out.Set(p, m.At(p))
	}
	return out
}

// GravityOptions tune gravity-matrix generation.
type GravityOptions struct {
	// Seed drives the mass jitter; distinct seeds give the distinct
	// matrices the paper's per-topology 12-demand experiments use.
	Seed int64
	// Jitter is the multiplicative lognormal-ish noise on node masses
	// (0 = pure capacity-proportional gravity). Typical: 0.4.
	Jitter float64
	// Total is the target sum of demands. If 0 a default proportional
	// to total capacity is used.
	Total float64
}

// Gravity generates a gravity-model traffic matrix: node masses are
// proportional to total incident capacity (with optional jitter), and
// the demand between s and t is proportional to mass_s * mass_t.
func Gravity(g *topology.Graph, opts GravityOptions) *Matrix {
	n := g.NumNodes()
	if n == 0 {
		return NewMatrix(0)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	mass := make([]float64, n)
	for _, l := range g.Links() {
		mass[l.A] += l.Capacity
		mass[l.B] += l.Capacity
	}
	for i := range mass {
		if opts.Jitter > 0 {
			mass[i] *= math.Exp(opts.Jitter * rng.NormFloat64())
		}
		if mass[i] <= 0 {
			//lint:ignore pcflint/floatcmp a mass floor, not a tolerance: an isolated node gets a tiny positive mass so the gravity normalization never divides by zero
			mass[i] = 1e-9
		}
	}
	sum := 0.0
	for _, v := range mass {
		sum += v
	}
	total := opts.Total
	if total == 0 {
		total = g.TotalCapacity() / 4
	}
	m := NewMatrix(n)
	norm := 0.0
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				norm += mass[s] * mass[t]
			}
		}
	}
	if norm == 0 {
		return m
	}
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				m.Demand[s][t] = total * mass[s] * mass[t] / norm
			}
		}
	}
	return m
}

// Uniform returns a matrix with demand v between every ordered pair.
func Uniform(g *topology.Graph, v float64) *Matrix {
	n := g.NumNodes()
	m := NewMatrix(n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s != t {
				m.Demand[s][t] = v
			}
		}
	}
	return m
}

// Single returns a matrix with one nonzero demand.
func Single(n int, p topology.Pair, v float64) *Matrix {
	m := NewMatrix(n)
	m.Set(p, v)
	return m
}

// Validate checks basic sanity: nonnegative entries, zero diagonal.
func (m *Matrix) Validate() error {
	_, err := m.ValidPairs()
	return err
}

// ValidPairs is Validate and Pairs(0) in one pass over the matrix: the
// pairs with positive demand, in Pairs' order, or Validate's error.
func (m *Matrix) ValidPairs() ([]topology.Pair, error) {
	var out []topology.Pair
	for i, row := range m.Demand {
		if len(row) != m.N() {
			return nil, fmt.Errorf("traffic: row %d has length %d, want %d", i, len(row), m.N())
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("traffic: negative demand at (%d,%d)", i, j)
			}
			if i == j && v != 0 {
				return nil, fmt.Errorf("traffic: nonzero self demand at node %d", i)
			}
			if v > 0 && i != j {
				out = append(out, topology.Pair{Src: topology.NodeID(i), Dst: topology.NodeID(j)})
			}
		}
	}
	sortPairsByDemand(out, m)
	return out, nil
}

// ReadMatrix parses a traffic matrix from the text format cmd/topogen
// emits: one "src dst demand" line per pair; '#' lines are comments.
func ReadMatrix(r io.Reader, n int) (*Matrix, error) {
	m := NewMatrix(n)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var s, t int
		var d float64
		if _, err := fmt.Sscanf(line, "%d %d %g", &s, &t, &d); err != nil {
			return nil, fmt.Errorf("traffic: line %d: %w", lineNo, err)
		}
		if s < 0 || s >= n || t < 0 || t >= n {
			return nil, fmt.Errorf("traffic: line %d: node out of range", lineNo)
		}
		// Validate catches negatives but not NaN (every comparison with
		// NaN is false) or +Inf, both of which Sscanf %g accepts.
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("traffic: line %d: demand must be finite", lineNo)
		}
		m.Demand[s][t] = d
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
