package routing

// Scenario classes: the designed failure set partitioned by what a
// realization reads of a scenario, so that a designed sweep realizes
// and judges one representative per class (DESIGN.md §12, "Scenario
// classes").

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/topology"
)

// designedClasses is the plan's designed set as classes of scenarios
// that realize bit-identically: binary scenarios that kill the same
// universe tunnels with a non-zero reservation and flip the same LS
// conditions away from their no-failure value. A scenario with a
// degraded link is a class of its own. A class's representative is its
// first member in enumeration order, and only the representatives are
// kept, as unit combinations.
type designedClasses struct {
	count    int     // designed scenarios
	repOff   []int32 // class i's representative is repUnits[repOff[i]:repOff[i+1]]
	repUnits []int
}

// len is the number of classes.
func (c *designedClasses) len() int { return len(c.repOff) - 1 }

// fill returns the function that writes class i's representative into
// a scenario, from fs, the set the classes partition.
func (c *designedClasses) fill(fs *failures.Set) scenarioFill {
	return func(i int, dst *failures.Scenario) { fs.FillScenario(dst, c.repUnits[c.repOff[i]:c.repOff[i+1]]) }
}

// designed returns the engine's designed classes, built by the first
// call through any view and kept. The build walks every unit
// combination once, checking ctx every 1024; a cancellation leaves the
// classes unbuilt for the next call.
func (s *Sweep) designed(ctx context.Context) (*designedClasses, error) {
	s.classMu.Lock()
	defer s.classMu.Unlock()
	if s.classes != nil {
		return s.classes, nil
	}
	// Room for every scenario of at most one failed unit: no growth at a
	// budget of one.
	fs := s.plan.Instance.Failures
	count, _ := fs.NumScenarios()
	c := newClassifier(s.engine, int(min(count, int64(len(fs.Units))+1)))
	n := 0
	var err error
	fs.EnumerateCombos(func(combo []int) bool {
		if n%1024 == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		n++
		c.classify(combo)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("routing: scenario classes canceled after %d scenarios: %w", n, err)
	}
	c.out.count = n
	s.classes = c.out
	return s.classes, nil
}

// classifier assigns unit combinations to classes in enumeration order.
// A combination's key is the ascending list of the universe tunnels with
// a non-zero reservation its dead links kill, then the ascending list
// of the LSs whose condition it flips; keys are hashed with the
// engine's keySeed and compared on a hit, like corrector signatures.
type classifier struct {
	*engine
	units []failures.Unit
	conds jagged // link -> the LSs whose condition names it

	// The combination being classified: its dead links (stamped with
	// ep), the two halves of its key and the key.
	ep          int32
	linkEp      []int32
	tuns, flips []int32
	key         []byte

	ids    map[uint64]int32 // key hash -> class
	keys   []byte           // class i's key is keys[keyOff[i]:keyOff[i+1]]
	keyOff []int32
	out    *designedClasses
}

// newClassifier returns a classifier for e's designed set with room for
// hint classes.
func newClassifier(e *engine, hint int) *classifier {
	links := e.plan.Instance.Graph.NumLinks()
	c := &classifier{
		engine: e,
		units:  e.plan.Instance.Failures.Units,
		linkEp: make([]int32, links),
		ids:    make(map[uint64]int32, hint),
		keyOff: make([]int32, 1, hint+1),
		out:    &designedClasses{repOff: make([]int32, 1, hint+1), repUnits: make([]int, 0, hint)},
	}
	// Each LS under every link its condition names: count per link,
	// sum, then place each entry by moving its link's offset down.
	c.conds.off = make([]int32, links+1)
	eachCondLink := func(add func(l, qi int)) {
		for qi := range e.ls {
			if cond := e.ls[qi].cond; cond != nil {
				for _, ls := range [][]topology.LinkID{cond.AliveLinks, cond.DeadLinks} {
					for _, l := range ls {
						if l >= 0 && int(l) < links {
							add(int(l), qi)
						}
					}
				}
			}
		}
	}
	off := c.conds.off
	eachCondLink(func(l, _ int) { off[l]++ })
	for l := 1; l <= links; l++ {
		off[l] += off[l-1]
	}
	c.conds.val = make([]int32, off[links])
	eachCondLink(func(l, qi int) {
		off[l]--
		c.conds.val[off[l]] = int32(qi)
	})
	return c
}

// classify returns the class of combo's scenario, opening a new class
// with combo as its representative when no earlier one holds it. A
// scenario with a degraded link, or a dead link outside the graph,
// opens a class of its own, as does one whose key shares its hash with
// an earlier class's different key.
func (c *classifier) classify(combo []int) int {
	c.ep++
	degrades := false
	for _, u := range combo {
		unit := &c.units[u]
		if unit.Alpha > 0 {
			degrades = true
			continue
		}
		for _, l := range unit.Links {
			if l < 0 || int(l) >= len(c.linkEp) {
				return c.open(combo, nil)
			}
			c.linkEp[l] = c.ep
		}
	}
	// A degrade unit's link is degraded unless a death unit kills it.
	if degrades {
		for _, u := range combo {
			if unit := &c.units[u]; unit.Alpha > 0 {
				for _, l := range unit.Links {
					if !c.dead(l) {
						return c.open(combo, nil)
					}
				}
			}
		}
	}
	// Both halves are collected with repeats (a tunnel over two dead
	// links, a condition naming two), then sorted and compacted.
	tuns, flips := c.tuns[:0], c.flips[:0]
	for _, u := range combo {
		if c.units[u].Alpha > 0 {
			continue
		}
		for _, l := range c.units[u].Links {
			for _, tid := range c.linkTuns[l] {
				if c.tunRow[tid] >= 0 && c.tunRes[tid] != 0 {
					tuns = append(tuns, int32(tid))
				}
			}
			// Only a condition naming a dead link can hold otherwise
			// than with no link dead.
			for _, qi := range c.conds.at(int(l)) {
				if e := &c.ls[qi]; c.holds(e.cond) != e.baseActive {
					flips = append(flips, qi)
				}
			}
		}
	}
	slices.Sort(tuns)
	slices.Sort(flips)
	c.tuns, c.flips = slices.Compact(tuns), slices.Compact(flips)
	// Each ascending half as its length and the gaps between its
	// entries.
	key := c.key[:0]
	for _, half := range [][]int32{c.tuns, c.flips} {
		key = binary.AppendUvarint(key, uint64(len(half)))
		prev := int32(0)
		for _, v := range half {
			key = binary.AppendUvarint(key, uint64(v-prev))
			prev = v
		}
	}
	c.key = key
	h := maphash.Bytes(c.keySeed, key)
	if id, ok := c.ids[h]; ok {
		if bytes.Equal(c.keys[c.keyOff[id]:c.keyOff[id+1]], key) {
			return int(id)
		}
		return c.open(combo, nil)
	}
	id := c.open(combo, key)
	c.ids[h] = int32(id)
	return id
}

// dead reports whether link l is dead in the combination being
// classified.
func (c *classifier) dead(l topology.LinkID) bool {
	return l >= 0 && int(l) < len(c.linkEp) && c.linkEp[l] == c.ep
}

// holds is cond.Holds on the combination being classified.
func (c *classifier) holds(cond *core.Condition) bool {
	if cond == nil {
		return true
	}
	for _, l := range cond.AliveLinks {
		if c.dead(l) {
			return false
		}
	}
	for _, l := range cond.DeadLinks {
		if !c.dead(l) {
			return false
		}
	}
	return true
}

// open starts a class with combo as its representative and key as its
// key (nil for a class no other scenario joins) and returns its index.
func (c *classifier) open(combo []int, key []byte) int {
	out := c.out
	out.repUnits = append(out.repUnits, combo...)
	out.repOff = append(out.repOff, int32(len(out.repUnits)))
	c.keys = append(c.keys, key...)
	c.keyOff = append(c.keyOff, int32(len(c.keys)))
	return out.len() - 1
}
