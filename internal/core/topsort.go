package core

import (
	"fmt"

	"pcf/internal/topology"
)

// This file implements the topological-sort machinery of §4.2 and the
// PCF-CLS-TopSort scheme of §5.2. A set of LSs is topologically
// sortable when the relation (i,j) > (i',j') — "(i',j') is a segment of
// an LS of pair (i,j)" — is acyclic over node pairs; Proposition 7 then
// guarantees that local proportional routing realizes the plan.

// pairDag tracks the '>' relation and answers reachability queries.
type pairDag struct {
	adj map[topology.Pair][]topology.Pair
}

func newPairDag() *pairDag { return &pairDag{adj: map[topology.Pair][]topology.Pair{}} }

// reaches reports whether dst is reachable from src.
func (d *pairDag) reaches(src, dst topology.Pair) bool {
	if src == dst {
		return true
	}
	seen := map[topology.Pair]bool{src: true}
	stack := []topology.Pair{src}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range d.adj[p] {
			if q == dst {
				return true
			}
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	return false
}

// wouldCycle reports whether adding the LS's edges creates a cycle.
func (d *pairDag) wouldCycle(q LogicalSequence) bool {
	for _, seg := range q.Segments() {
		if d.reaches(seg, q.Pair) {
			return true
		}
	}
	return false
}

func (d *pairDag) add(q LogicalSequence) {
	for _, seg := range q.Segments() {
		d.adj[q.Pair] = append(d.adj[q.Pair], seg)
	}
}

// singleDeadConds reports whether every condition in the set is either
// nil or a single dead link, the structure the paper's PCF-CLS uses.
func singleDeadConds(lss []LogicalSequence) bool {
	for _, q := range lss {
		if q.Cond == nil {
			continue
		}
		if len(q.Cond.AliveLinks) != 0 || len(q.Cond.DeadLinks) != 1 {
			return false
		}
	}
	return true
}

// TopSortFilter greedily keeps LSs that preserve per-scenario
// topological sortability, in input order, exactly as §5.2's
// PCF-CLS-TopSort does. When every condition is a single dead link and
// the failure budget is one, the check is exact per scenario (only one
// link's conditional LSs can be active at a time); otherwise the
// conservative global relation is used. It returns the kept LSs
// (re-IDed densely) and the number pruned.
func TopSortFilter(lss []LogicalSequence, singleFailure bool) ([]LogicalSequence, int) {
	exact := singleFailure && singleDeadConds(lss)
	base := newPairDag() // unconditional relation
	perLink := map[topology.LinkID]*pairDag{}
	var kept []LogicalSequence
	pruned := 0

	linkDag := func(l topology.LinkID) *pairDag {
		if d, ok := perLink[l]; ok {
			return d
		}
		d := base.clone()
		perLink[l] = d
		return d
	}

	for _, q := range lss {
		if !exact {
			if base.wouldCycle(q) {
				pruned++
				continue
			}
			base.add(q)
		} else if q.Cond == nil {
			// Must stay acyclic with the unconditional set and with
			// every link's conditional set.
			bad := base.wouldCycle(q)
			if !bad {
				for _, d := range perLink {
					if d.wouldCycle(q) {
						bad = true
						break
					}
				}
			}
			if bad {
				pruned++
				continue
			}
			base.add(q)
			for _, d := range perLink {
				d.add(q)
			}
		} else {
			d := linkDag(q.Cond.DeadLinks[0])
			if d.wouldCycle(q) {
				pruned++
				continue
			}
			d.add(q)
		}
		q.ID = LSID(len(kept))
		kept = append(kept, q)
	}
	return kept, pruned
}

// clone deep-copies the dag.
func (d *pairDag) clone() *pairDag {
	c := newPairDag()
	for p, next := range d.adj {
		c.adj[p] = append([]topology.Pair(nil), next...)
	}
	return c
}

// TopologicalPairOrder returns every node pair of interest sorted so
// that a pair appears after all pairs whose LSs use it as a segment
// (i.e. greater pairs first). It errors if the relation is cyclic.
func TopologicalPairOrder(lss []LogicalSequence, pairs []topology.Pair) ([]topology.Pair, error) {
	index := map[topology.Pair]int{}
	for i, p := range pairs {
		index[p] = i
	}
	adj := make([][]int, len(pairs))
	indeg := make([]int, len(pairs))
	for _, q := range lss {
		qi, ok := index[q.Pair]
		if !ok {
			return nil, fmt.Errorf("core: LS pair %v not in pair list", q.Pair)
		}
		for _, seg := range q.Segments() {
			si, ok := index[seg]
			if !ok {
				return nil, fmt.Errorf("core: LS segment %v not in pair list", seg)
			}
			adj[qi] = append(adj[qi], si)
			indeg[si]++
		}
	}
	// Kahn's algorithm; stable by original pair order.
	var queue []int
	for i := range pairs {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	var order []topology.Pair
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, pairs[i])
		for _, j := range adj[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) != len(pairs) {
		return nil, fmt.Errorf("core: LS relation is cyclic; no topological order exists")
	}
	return order, nil
}
