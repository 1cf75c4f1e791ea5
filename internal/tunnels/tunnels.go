// Package tunnels selects and manages the physical tunnels (pre-
// established paths) over which FFC and PCF route traffic. The
// selection strategy follows the paper's evaluation (§5): tunnels are
// chosen to be as link-disjoint as possible, preferring shorter paths
// when there is a choice, falling back to link-penalized shortest paths
// when fully disjoint tunnels are exhausted.
package tunnels

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"pcf/internal/tol"
	"pcf/internal/topology"
)

// ID identifies a tunnel within a Set.
type ID int

// Tunnel is a pre-selected path for one source-destination pair.
type Tunnel struct {
	ID   ID
	Pair topology.Pair
	Path topology.Path
}

// Set is a collection of tunnels indexed by pair.
type Set struct {
	g       *topology.Graph
	tunnels []Tunnel
	byPair  map[topology.Pair][]ID
}

// NewSet returns an empty tunnel set over graph g.
func NewSet(g *topology.Graph) *Set {
	return &Set{g: g, byPair: make(map[topology.Pair][]ID)}
}

// Graph returns the underlying topology.
func (s *Set) Graph() *topology.Graph { return s.g }

// Add registers a tunnel for the pair along path and returns its ID.
// It validates that the path actually runs from pair.Src to pair.Dst.
func (s *Set) Add(pair topology.Pair, path topology.Path) (ID, error) {
	if len(path.Arcs) == 0 {
		return 0, fmt.Errorf("tunnels: empty path for %v", pair)
	}
	from, _ := s.g.ArcEnds(path.Arcs[0])
	_, to := s.g.ArcEnds(path.Arcs[len(path.Arcs)-1])
	if from != pair.Src || to != pair.Dst {
		return 0, fmt.Errorf("tunnels: path runs %d->%d, want %v", from, to, pair)
	}
	at := from
	for _, a := range path.Arcs {
		f, t := s.g.ArcEnds(a)
		if f != at {
			return 0, fmt.Errorf("tunnels: discontinuous path for %v", pair)
		}
		at = t
	}
	id := ID(len(s.tunnels))
	s.tunnels = append(s.tunnels, Tunnel{ID: id, Pair: pair, Path: path})
	s.byPair[pair] = append(s.byPair[pair], id)
	return id, nil
}

// MustAdd is Add that panics on error; for hand-built gadget fixtures
// where a bad path is a programmer error. The Must* naming places it on
// the pcflint/nopanic allowlist (DESIGN.md §10); data paths use Add.
func (s *Set) MustAdd(pair topology.Pair, path topology.Path) ID {
	id, err := s.Add(pair, path)
	if err != nil {
		panic(err)
	}
	return id
}

// Len reports the total number of tunnels.
func (s *Set) Len() int { return len(s.tunnels) }

// Tunnel returns the tunnel with the given ID.
func (s *Set) Tunnel(id ID) Tunnel { return s.tunnels[id] }

// ForPair returns the tunnel IDs for a pair, in insertion order. The
// returned slice must not be modified.
func (s *Set) ForPair(p topology.Pair) []ID { return s.byPair[p] }

// Pairs returns all pairs that have at least one tunnel, in a
// deterministic order.
func (s *Set) Pairs() []topology.Pair {
	out := make([]topology.Pair, 0, len(s.byPair))
	for p := range s.byPair {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// MaxShared returns p_st for the pair: the maximum number of the
// pair's tunnels that share a single link (FFC's structure parameter).
func (s *Set) MaxShared(p topology.Pair) int {
	count := make(map[topology.LinkID]int)
	for _, id := range s.byPair[p] {
		seen := make(map[topology.LinkID]bool)
		for _, a := range s.tunnels[id].Path.Arcs {
			l := topology.LinkOf(a)
			if !seen[l] {
				seen[l] = true
				count[l]++
			}
		}
	}
	best := 0
	for _, c := range count {
		if c > best {
			best = c
		}
	}
	return best
}

// SelectOptions tune tunnel selection.
type SelectOptions struct {
	// PerPair is the number of tunnels to select per pair.
	PerPair int
}

// penalty multiplies the weight of a link each time an already
// selected tunnel for the pair uses it: phase 2 strongly prefers
// disjointness, as the paper does.
const penalty = 16

// Select chooses tunnels for every listed pair. For each pair it first
// takes fully link-disjoint shortest paths while they exist, then fills
// the remaining slots with penalized shortest paths, skipping exact
// duplicates. Pairs are searched grouped by source, so the first
// augmenting tree of a source is built once for all its pairs, and the
// tunnels are added in the caller's pair order: IDs follow pairs.
func Select(g *topology.Graph, pairs []topology.Pair, opts SelectOptions) (*Set, error) {
	if opts.PerPair <= 0 {
		return nil, fmt.Errorf("tunnels: PerPair must be positive")
	}
	bySrc := make([]int, len(pairs))
	for i := range bySrc {
		bySrc[i] = i
	}
	slices.SortStableFunc(bySrc, func(i, j int) int { return cmp.Compare(pairs[i].Src, pairs[j].Src) })
	chosen := make([][]topology.Path, len(pairs))
	s := newSearch(g)
	for k, i := range bySrc {
		pair := pairs[i]
		if k == 0 || pairs[bySrc[k-1]].Src != pair.Src {
			s.firstTree(pair.Src)
		}
		// Phase 1: a maximum set of link-disjoint paths (up to
		// PerPair), found by successive shortest augmenting paths in
		// the unit-capacity residual graph (Suurballe-style, so two
		// disjoint tunnels exist whenever the graph is 2-edge-
		// connected, matching the paper's setup).
		if paths := s.disjointPaths(pair, opts.PerPair); len(paths) > 0 {
			chosen[i] = complete(g, pair, paths, opts.PerPair)
		}
	}
	set := NewSet(g)
	for i, pair := range pairs {
		if len(chosen[i]) == 0 {
			return nil, fmt.Errorf("tunnels: no path for pair %v", pair)
		}
		for _, p := range chosen[i] {
			if _, err := set.Add(pair, p); err != nil {
				return nil, err
			}
		}
	}
	return set, nil
}

// complete is phase 2 of Select: it fills the slots the link-disjoint
// paths in chosen leave from Yen's k-shortest-path enumeration under
// usage-penalized weights, preferring low overlap with the chosen set
// and then shorter length, and orders the result.
func complete(g *topology.Graph, pair topology.Pair, chosen []topology.Path, perPair int) []topology.Path {
	numDisjoint := len(chosen)
	used := make(map[topology.LinkID]int)
	for _, p := range chosen {
		for _, a := range p.Arcs {
			used[topology.LinkOf(a)]++
		}
	}
	if len(chosen) < perPair {
		weight := func(l topology.LinkID) float64 {
			w := g.Link(l).Weight
			for i := 0; i < used[l]; i++ {
				w *= penalty
			}
			return w
		}
		enum := g.KShortestPaths(pair.Src, pair.Dst, 4*perPair, weight)
		for _, p := range enum {
			if len(chosen) >= perPair {
				break
			}
			if !containsPath(chosen, p) {
				chosen = append(chosen, p)
				for _, a := range p.Arcs {
					used[topology.LinkOf(a)]++
				}
			}
		}
	}
	// Shorter tunnels first within each group, but fully disjoint
	// paths always precede penalized ones: Restrict(k) must keep
	// the most-disjoint prefix (FFC's 2-tunnel configuration
	// relies on a disjoint pair).
	disjointPart := chosen[:numDisjoint]
	extraPart := chosen[numDisjoint:]
	sort.SliceStable(disjointPart, func(i, j int) bool { return len(disjointPart[i].Arcs) < len(disjointPart[j].Arcs) })
	sort.SliceStable(extraPart, func(i, j int) bool { return len(extraPart[i].Arcs) < len(extraPart[j].Arcs) })
	return chosen
}

func containsPath(paths []topology.Path, p topology.Path) bool {
	for _, q := range paths {
		if samePath(q, p) {
			return true
		}
	}
	return false
}

func samePath(a, b topology.Path) bool {
	if len(a.Arcs) != len(b.Arcs) {
		return false
	}
	for i := range a.Arcs {
		if a.Arcs[i] != b.Arcs[i] {
			return false
		}
	}
	return true
}

// Restrict returns a new Set containing only the first k tunnels of
// each pair, sharing the same underlying graph. Used by the experiments
// that sweep tunnel counts (Figs 8 and 9).
func (s *Set) Restrict(k int) *Set {
	out := NewSet(s.g)
	for _, p := range s.Pairs() {
		ids := s.byPair[p]
		for i, id := range ids {
			if i >= k {
				break
			}
			out.MustAdd(p, s.tunnels[id].Path)
		}
	}
	return out
}

// search is the link-disjoint path search over one graph: the graph as
// flat per-arc slices, built once per Select, and the label, worklist
// and usage buffers every pair reuses.
type search struct {
	g          *topology.Graph
	tail, head []topology.NodeID // per arc
	weight     []float64         // per arc: its link's weight
	usage      []int8            // per link: 0 unused, +1 used forward, -1 used in reverse
	cost       []float64         // per arc: residual cost of the running augmentation, +Inf if none
	dist       []float64         // per node: the running tree's labels ...
	prev       []topology.ArcID  // ... and predecessor arcs, -1 for none
	first      []topology.ArcID  // predecessor arcs of the current source's first tree
	cur, next  []uint64          // arc bitsets: this pass's worklist and the next one's
}

func newSearch(g *topology.Graph) *search {
	n, arcs := g.NumNodes(), g.NumArcs()
	s := &search{
		g:      g,
		tail:   make([]topology.NodeID, arcs),
		head:   make([]topology.NodeID, arcs),
		weight: make([]float64, arcs),
		usage:  make([]int8, g.NumLinks()),
		cost:   make([]float64, arcs),
		dist:   make([]float64, n),
		prev:   make([]topology.ArcID, n),
		first:  make([]topology.ArcID, n),
		cur:    make([]uint64, (arcs+63)/64),
		next:   make([]uint64, (arcs+63)/64),
	}
	for a := range s.tail {
		s.tail[a], s.head[a] = g.ArcEnds(topology.ArcID(a))
		s.weight[a] = g.Link(topology.LinkOf(topology.ArcID(a))).Weight
	}
	return s
}

// firstTree builds the shortest-path tree of src's first augmentation,
// which sees no usage and so serves every pair from src.
func (s *search) firstTree(src topology.NodeID) {
	clear(s.usage)
	s.tree(src)
	copy(s.first, s.prev)
}

// tree runs Bellman-Ford from src over the residual arcs of the current
// usage into dist and prev. A used link may only be cancelled: its
// reverse arc is residual at negative cost, its own direction not at
// all. The passes are those of in-place Bellman-Ford — each takes the
// arcs in ID order and improves labels as it goes, until a pass
// improves nothing or n passes ran — but a pass evaluates only the arcs
// whose tail label moved since their last evaluation. Every skipped
// evaluation would fail: its tail is unchanged and its head's label has
// only fallen since. So labels, predecessors and pass count are exactly
// those of evaluating every arc in every pass (the full pass that
// oracle_test.go keeps). A relaxed node marks its arcs in cur when they
// come after the arc being evaluated (they run later in this pass) and
// in next otherwise.
func (s *search) tree(src topology.NodeID) {
	for a := range s.cost {
		l := a / 2
		switch dir := s.usage[l]; {
		case dir == 0:
			s.cost[a] = s.weight[a] // either direction available
		case (dir > 0) == (a%2 == 1):
			s.cost[a] = -s.weight[a] // only cancellation allowed
		default:
			s.cost[a] = math.Inf(1)
		}
	}
	for i := range s.dist {
		s.dist[i] = math.Inf(1)
		s.prev[i] = -1
	}
	s.dist[src] = 0
	cur, next := s.cur, s.next
	s.mark(src, -1, cur, cur)
	for pass := 0; pass < len(s.dist); pass++ {
		pending := false
		for w := range cur {
			for cur[w] != 0 {
				b := bits.TrailingZeros64(cur[w])
				cur[w] &^= 1 << b
				a := w*64 + b
				from, to := s.tail[a], s.head[a]
				if d := s.dist[from] + s.cost[a]; d < s.dist[to]-tol.TunnelTie {
					s.dist[to] = d
					s.prev[to] = topology.ArcID(a)
					pending = s.mark(to, a, cur, next) || pending
				}
			}
		}
		if !pending {
			break
		}
		cur, next = next, cur
	}
	clear(cur) // the pass cap can stop the search with work queued
}

// mark queues v's residual out-arcs after its label moved while arc at
// was evaluated: those after at into cur, the rest into next. It
// reports whether it queued any into next.
func (s *search) mark(v topology.NodeID, at int, cur, next []uint64) bool {
	queued := false
	for _, o := range s.g.OutArcs(v) {
		if math.IsInf(s.cost[o], 1) {
			continue // never relaxes under this usage
		}
		if int(o) > at {
			cur[o/64] |= 1 << (o % 64)
		} else {
			next[o/64] |= 1 << (o % 64)
			queued = true
		}
	}
	return queued
}

// disjointPaths computes up to k link-disjoint src->dst paths of small
// total length via successive shortest augmenting paths on the
// unit-capacity (per link) residual graph. Reversing a used link has
// negative cost, so Bellman-Ford (tree) finds the augmenting paths; the
// first comes from the source's tree, which firstTree must have built.
func (s *search) disjointPaths(pair topology.Pair, k int) []topology.Path {
	g := s.g
	clear(s.usage)
	flows := 0
	for prev := s.first; flows < k; prev = s.prev {
		if flows > 0 {
			s.tree(pair.Src)
		}
		if prev[pair.Dst] == -1 {
			break // no more disjoint paths
		}
		// Apply the augmenting path to the usage.
		for at := pair.Dst; at != pair.Src; {
			arc := prev[at]
			l := topology.LinkOf(arc)
			dir := int8(+1)
			if arc == g.Link(l).Reverse() {
				dir = -1
			}
			if s.usage[l] == -dir {
				s.usage[l] = 0 // cancellation
			} else {
				s.usage[l] = dir
			}
			at = s.tail[arc]
		}
		flows++
	}
	if flows == 0 {
		return nil
	}
	// Decompose the flow into paths by walking from src. Iterate links
	// in ID order so the decomposition (and therefore tunnel selection)
	// is deterministic.
	outArcs := map[topology.NodeID][]topology.ArcID{}
	for l, dir := range s.usage {
		if dir == 0 {
			continue
		}
		arc := g.Link(topology.LinkID(l)).Forward()
		if dir == -1 {
			arc = g.Link(topology.LinkID(l)).Reverse()
		}
		outArcs[s.tail[arc]] = append(outArcs[s.tail[arc]], arc)
	}
	var paths []topology.Path
	for f := 0; f < flows; f++ {
		var arcs []topology.ArcID
		at := pair.Src
		for at != pair.Dst {
			list := outArcs[at]
			if len(list) == 0 {
				return paths // should not happen; be safe
			}
			arc := list[0]
			outArcs[at] = list[1:]
			arcs = append(arcs, arc)
			at = s.head[arc]
		}
		paths = append(paths, topology.Path{Arcs: arcs})
	}
	sort.SliceStable(paths, func(i, j int) bool { return len(paths[i].Arcs) < len(paths[j].Arcs) })
	return paths
}
