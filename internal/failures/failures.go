// Package failures models the failure scenarios a congestion-free plan
// must survive. A failure Set is a collection of failure units (a
// single link, a shared-risk link group, a node — i.e., all links
// incident to it — or a region) plus a budget f: any f or fewer units
// may fail simultaneously (paper §3.2, §3.5).
//
// A unit either kills its links outright (Alpha == 0, the paper's
// setting) or degrades them: with Alpha ∈ (0,1) the unit's links stay
// up but their capacity is scaled by Alpha for the duration of the
// scenario. Degradation models partial fiber cuts and wireless links
// (PAPERS.md, the wireless-R3 line of work) where binary death is too
// pessimistic.
//
// The Set has two consumers: the optimization models in internal/core
// turn it into an adversary polytope (the LP relaxation of the scenario
// set), and the validators/optimal-response code enumerate its integral
// scenarios exhaustively. For sets too large to enumerate, ProbModel
// (prob.go) attaches per-unit failure probabilities and supports
// seeded sampling of the un-enumerated tail with an explicit coverage
// bound.
package failures

import (
	"fmt"
	"math"
	"sort"

	"pcf/internal/topology"
)

// Unit is an atomic failure event. With Alpha == 0 all of its links
// die together; with Alpha ∈ (0,1) its links survive but run at
// Alpha times their nominal capacity while the unit is failed.
type Unit struct {
	Name  string
	Links []topology.LinkID
	// Alpha is the capacity scale the unit's links suffer when it
	// fails: 0 means the links die (binary failure), a value in (0,1)
	// means they stay alive at Alpha times nominal capacity.
	Alpha float64
}

// Set is a family of failure scenarios: any subset of at most Budget
// units failing simultaneously.
type Set struct {
	Units  []Unit
	Budget int
}

// SingleLinks returns the standard model where each link is its own
// failure unit and at most f links fail (the paper's primary setting).
func SingleLinks(g *topology.Graph, f int) *Set {
	units := make([]Unit, g.NumLinks())
	for i := 0; i < g.NumLinks(); i++ {
		units[i] = Unit{
			Name:  fmt.Sprintf("link%d", i),
			Links: []topology.LinkID{topology.LinkID(i)},
		}
	}
	return &Set{Units: units, Budget: f}
}

// Nodes returns a model where each listed node is a failure unit (all
// its incident links fail) and at most f nodes fail.
func Nodes(g *topology.Graph, nodes []topology.NodeID, f int) *Set {
	units := make([]Unit, 0, len(nodes))
	for _, n := range nodes {
		seen := make(map[topology.LinkID]bool)
		var links []topology.LinkID
		for _, a := range g.OutArcs(n) {
			l := topology.LinkOf(a)
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
		sort.Slice(links, func(a, b int) bool { return links[a] < links[b] })
		units = append(units, Unit{Name: fmt.Sprintf("node%d", n), Links: links})
	}
	return &Set{Units: units, Budget: f}
}

// Scenario is one concrete failure state: a set of dead links plus a
// set of degraded links with their capacity scales.
type Scenario struct {
	// FailedUnits indexes into Set.Units.
	FailedUnits []int
	// Dead marks dead links.
	Dead map[topology.LinkID]bool
	// Degraded maps links that survive at reduced capacity to their
	// capacity scale in (0,1). A link that is both dead (via one unit)
	// and degraded (via another) is dead; Dead wins and the link does
	// not appear here. Nil for pure-death scenarios, so the zero
	// Scenario and all pre-existing construction sites keep their
	// meaning.
	Degraded map[topology.LinkID]float64
}

// Alive reports whether a path survives the scenario. Degraded links
// count as alive: their tunnels keep carrying traffic, only the
// capacity checks tighten.
func (s Scenario) Alive(p topology.Path) bool {
	for _, a := range p.Arcs {
		if s.Dead[topology.LinkOf(a)] {
			return false
		}
	}
	return true
}

// CapScale returns the capacity multiplier the scenario applies to a
// link: 0 if the link is dead, its degradation scale if degraded, and
// 1 otherwise.
func (s Scenario) CapScale(l topology.LinkID) float64 {
	if s.Dead[l] {
		return 0
	}
	if a, ok := s.Degraded[l]; ok {
		return a
	}
	return 1
}

// String renders the scenario compactly, naming the failed units, the
// resulting dead links, and any degraded links so error messages
// identify the exact failure state.
func (s Scenario) String() string {
	if len(s.FailedUnits) == 0 && len(s.Dead) == 0 && len(s.Degraded) == 0 {
		return "{no failure}"
	}
	links := make([]int, 0, len(s.Dead))
	for l := range s.Dead {
		links = append(links, int(l))
	}
	sort.Ints(links)
	var deg string
	if len(s.Degraded) > 0 {
		ids := make([]int, 0, len(s.Degraded))
		for l := range s.Degraded {
			ids = append(ids, int(l))
		}
		sort.Ints(ids)
		parts := make([]string, len(ids))
		for i, l := range ids {
			parts[i] = fmt.Sprintf("%d@%.3g", l, s.Degraded[topology.LinkID(l)])
		}
		deg = fmt.Sprintf(", degraded %v", parts)
	}
	if len(s.FailedUnits) == 0 {
		return fmt.Sprintf("{dead links %v%s}", links, deg)
	}
	return fmt.Sprintf("{units %v, dead links %v%s}", s.FailedUnits, links, deg)
}

// ScenarioOf materializes the dead- and degraded-link state for a unit
// combination. Death units win over degrade units on shared links, and
// two degrade units sharing a link compose by taking the worse
// (smaller) scale.
func (fs *Set) ScenarioOf(combo []int) Scenario {
	var sc Scenario
	fs.FillScenario(&sc, combo)
	return sc
}

// FillScenario is ScenarioOf written into dst, reusing its slice and
// maps: a loop that materializes one scenario at a time refills one
// scratch scenario rather than allocating each. On a zero dst it makes
// what ScenarioOf returns; a reused dst may keep an empty Degraded map
// where ScenarioOf leaves it nil, which reads the same. Whatever held
// dst's earlier contents sees them overwritten.
func (fs *Set) FillScenario(dst *Scenario, combo []int) {
	dst.FailedUnits = append(dst.FailedUnits[:0], combo...)
	if dst.Dead == nil {
		dst.Dead = make(map[topology.LinkID]bool)
	} else {
		clear(dst.Dead)
	}
	clear(dst.Degraded)
	for _, u := range combo {
		unit := fs.Units[u]
		if unit.Alpha > 0 {
			continue
		}
		for _, l := range unit.Links {
			dst.Dead[l] = true
		}
	}
	for _, u := range combo {
		unit := fs.Units[u]
		if unit.Alpha <= 0 {
			continue
		}
		for _, l := range unit.Links {
			if dst.Dead[l] {
				continue
			}
			if dst.Degraded == nil {
				dst.Degraded = make(map[topology.LinkID]float64)
			}
			if cur, ok := dst.Degraded[l]; !ok || unit.Alpha < cur {
				dst.Degraded[l] = unit.Alpha
			}
		}
	}
}

// Enumerate calls fn for every scenario with at most Budget failed
// units, including the no-failure scenario. If fn returns false the
// enumeration stops early and Enumerate returns false.
func (fs *Set) Enumerate(fn func(Scenario) bool) bool {
	return fs.EnumerateCombos(func(combo []int) bool { return fn(fs.ScenarioOf(combo)) })
}

// EnumerateCombos calls fn with the unit combination of every scenario
// Enumerate visits, in the same order — ascending unit indexes, each
// combination before its extensions — without materializing the
// scenario. fn must not keep or modify combo, which is reused. If fn
// returns false the enumeration stops early and EnumerateCombos returns
// false.
func (fs *Set) EnumerateCombos(fn func(combo []int) bool) bool {
	n := len(fs.Units)
	combo := make([]int, 0, fs.Budget)
	var rec func(start int) bool
	rec = func(start int) bool {
		if !fn(combo) {
			return false
		}
		if len(combo) == fs.Budget {
			return true
		}
		for i := start; i < n; i++ {
			combo = append(combo, i)
			if !rec(i + 1) {
				return false
			}
			combo = combo[:len(combo)-1]
		}
		return true
	}
	return rec(0)
}

// NumScenariosExact returns C(n, k) summed for k = 0..Budget without
// enumerating, for sizing reports. The count saturates at
// math.MaxInt64: synth-scale sets (10k units, f ≥ 5) overflow the
// naive product, and a saturated sizing report is more useful than a
// negative one. Use NumScenarios to detect saturation.
func (fs *Set) NumScenariosExact() int {
	n, _ := fs.NumScenarios()
	return int(n)
}

// NumScenarios returns the scenario count and whether it is exact;
// false means the true count exceeds math.MaxInt64 and the returned
// value is saturated there.
func (fs *Set) NumScenarios() (int64, bool) {
	n := len(fs.Units)
	var total int64
	for k := 0; k <= fs.Budget && k <= n; k++ {
		c, ok := binomial(n, k)
		if !ok || total > math.MaxInt64-c {
			return math.MaxInt64, false
		}
		total += c
	}
	return total, true
}

// binomial computes C(n, k) with int64 saturation: the second return
// is false when the value (or an intermediate product) exceeds
// math.MaxInt64, in which case math.MaxInt64 is returned.
func binomial(n, k int) (int64, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	if k > n-k {
		k = n - k
	}
	c := int64(1)
	for i := 0; i < k; i++ {
		m := int64(n - i)
		// c*(n-i) is always divisible by (i+1) at this step, so the
		// division keeps c integral; only the product can overflow.
		if m > 0 && c > math.MaxInt64/m {
			return math.MaxInt64, false
		}
		c = c * m / int64(i+1)
	}
	return c, true
}

// WorstCapScale returns the smallest capacity scale any single
// scenario in the set can impose on a link while the link stays alive:
// the minimum Alpha over degrade units containing it (1 if none, or if
// the budget admits no failures at all). Death units are excluded —
// a dead link carries no flow, so its capacity constraint is vacuous —
// and because two degrade units sharing a link compose by min, the
// worst scale over every ≤Budget combination is achieved by a single
// unit, making this bound exact for any Budget ≥ 1.
func (fs *Set) WorstCapScale(l topology.LinkID) float64 {
	if fs == nil || fs.Budget < 1 {
		return 1
	}
	scale := 1.0
	for _, u := range fs.Units {
		if u.Alpha <= 0 || u.Alpha >= scale {
			continue
		}
		for _, ul := range u.Links {
			if ul == l {
				scale = u.Alpha
				break
			}
		}
	}
	return scale
}

// Degrade returns a copy of the set in which every unit degrades its
// links to alpha times nominal capacity instead of killing them.
// alpha must lie in (0,1).
func (fs *Set) Degrade(alpha float64) *Set {
	units := make([]Unit, len(fs.Units))
	for i, u := range fs.Units {
		units[i] = Unit{Name: u.Name, Links: u.Links, Alpha: alpha}
	}
	return &Set{Units: units, Budget: fs.Budget}
}

// Disconnects reports whether some scenario in the set disconnects the
// graph, along with a witness scenario. Plans cannot guarantee positive
// throughput for pairs separated by a disconnection.
func (fs *Set) Disconnects(g *topology.Graph) (Scenario, bool) {
	var witness Scenario
	found := false
	fs.Enumerate(func(sc Scenario) bool {
		if !g.IsConnected(sc.Dead) {
			witness = sc
			found = true
			return false
		}
		return true
	})
	return witness, found
}
