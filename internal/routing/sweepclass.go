package routing

// Scenario classes: scenarios partitioned by what a realization reads
// of them, so that a sweep realizes and judges one representative per
// class (DESIGN.md §12, "Scenario classes"). The designed set's classes
// are built once per engine; a sampled tail's draws are classified per
// call, against them first.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"

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
// kept, as unit combinations, beside the tables their keys were built
// from and the keys themselves: the index a sampled tail's draws are
// looked up in. All of it is read-only once built.
type designedClasses struct {
	count    int     // designed scenarios
	repOff   []int32 // class i's representative is repUnits[repOff[i]:repOff[i+1]]
	repUnits []int
	tables   *classTables
	index    keyIndex // class i's key is entry i
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
	c.out.index = c.index
	s.classes = c.out
	return s.classes, nil
}

// classTables is what a class key reads of the engine, per link: the
// universe tunnels with a non-zero reservation over it, and the LSs
// whose condition names it.
type classTables struct {
	resTuns jagged
	conds   jagged
}

func newClassTables(e *engine) *classTables {
	links := e.plan.Instance.Graph.NumLinks()
	return &classTables{
		resTuns: jaggedOf(links, func(add func(l int, v int32)) {
			for l, tids := range e.linkTuns {
				if l < 0 || int(l) >= links {
					continue
				}
				for _, tid := range tids {
					if e.tunRow[tid] >= 0 && e.tunRes[tid] != 0 {
						add(int(l), int32(tid))
					}
				}
			}
		}),
		conds: jaggedOf(links, func(add func(l int, v int32)) {
			for qi := range e.ls {
				if cond := e.ls[qi].cond; cond != nil {
					for _, ls := range [][]topology.LinkID{cond.AliveLinks, cond.DeadLinks} {
						for _, l := range ls {
							if l >= 0 && int(l) < links {
								add(int(l), int32(qi))
							}
						}
					}
				}
			}
		}),
	}
}

// jaggedOf builds n lists from the (list, value) pairs each yields to
// add, in no particular order within a list. It calls each twice:
// once to count the pairs per list, then to place each one by moving
// its list's offset down.
func jaggedOf(n int, each func(add func(i int, v int32))) jagged {
	off := make([]int32, n+1)
	each(func(i int, _ int32) { off[i]++ })
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	val := make([]int32, off[n])
	each(func(i int, v int32) {
		off[i]--
		val[off[i]] = v
	})
	return jagged{off: off, val: val}
}

// classKeys builds class keys from an engine's class tables, for
// combinations of units or for a scenario's dead links. A scenario's
// key is the ascending list of the universe tunnels with a non-zero
// reservation its dead links kill, then the ascending list of the LSs
// whose condition it flips, each as its length and the gaps between its
// entries.
type classKeys struct {
	*engine
	*classTables
	units []failures.Unit

	// The scenario being keyed: its dead links (stamped with ep, and
	// listed once each), the two halves of its key as sets, one drained
	// half and the key.
	ep              int32
	linkEp          []int32
	links           []topology.LinkID
	tunSet, flipSet idSet
	half            []int32
	key             []byte
}

func newClassKeys(e *engine, t *classTables, units []failures.Unit) classKeys {
	return classKeys{
		engine:      e,
		classTables: t,
		units:       units,
		linkEp:      make([]int32, e.plan.Instance.Graph.NumLinks()),
		tunSet:      newIDSet(len(e.tunRow)),
		flipSet:     newIDSet(len(e.ls)),
	}
}

// keyOf returns combo's key, nil for a scenario that stands alone: one
// with a degraded link or a dead link outside the graph. The key is k's
// until the next call.
func (k *classKeys) keyOf(combo []int) []byte {
	k.begin()
	degrades := false
	for _, u := range combo {
		unit := &k.units[u]
		if unit.Alpha > 0 {
			degrades = true
			continue
		}
		for _, l := range unit.Links {
			if !k.stamp(l) {
				return nil
			}
		}
	}
	// A degrade unit's link is degraded unless a death unit kills it.
	if degrades {
		for _, u := range combo {
			if unit := &k.units[u]; unit.Alpha > 0 {
				for _, l := range unit.Links {
					if !k.dead(l) {
						return nil
					}
				}
			}
		}
	}
	return k.gather()
}

// keyOfDead returns the key of the scenario whose dead links are dead's
// true entries, as keyOf keys a combination, nil if one lies outside
// the graph. It reads no degraded link: the caller keys only scenarios
// that have none. The key is k's until the next call.
func (k *classKeys) keyOfDead(dead map[topology.LinkID]bool) []byte {
	k.begin()
	for l, d := range dead {
		if d && !k.stamp(l) {
			return nil
		}
	}
	return k.gather()
}

// begin starts the next scenario's stamps. When the stamp wraps round
// to zero every old stamp is cleared, so none reads as the new one's.
func (k *classKeys) begin() {
	if k.ep++; k.ep == 0 {
		clear(k.linkEp)
		k.ep = 1
	}
	k.links = k.links[:0]
}

// stamp marks link l dead in the scenario being keyed; false if it lies
// outside the graph.
func (k *classKeys) stamp(l topology.LinkID) bool {
	if l < 0 || int(l) >= len(k.linkEp) {
		return false
	}
	if k.linkEp[l] != k.ep {
		k.linkEp[l] = k.ep
		k.links = append(k.links, l)
	}
	return true
}

// gather builds the key of the stamped dead links. Both halves are
// gathered as sets (a tunnel over two dead links, a condition naming
// two, count once) that drain in ascending order.
func (k *classKeys) gather() []byte {
	for _, l := range k.links {
		for _, tid := range k.resTuns.at(int(l)) {
			k.tunSet.add(tid)
		}
		// Only a condition naming a dead link can hold otherwise than
		// with no link dead.
		for _, qi := range k.conds.at(int(l)) {
			if e := &k.ls[qi]; k.holds(e.cond) != e.baseActive {
				k.flipSet.add(qi)
			}
		}
	}
	key := k.key[:0]
	for _, set := range []*idSet{&k.tunSet, &k.flipSet} {
		k.half = set.drain(k.half[:0])
		key = binary.AppendUvarint(key, uint64(len(k.half)))
		prev := int32(0)
		for _, v := range k.half {
			key = binary.AppendUvarint(key, uint64(v-prev))
			prev = v
		}
	}
	k.key = key
	return key
}

// dead reports whether link l is dead in the combination being keyed.
func (k *classKeys) dead(l topology.LinkID) bool {
	return l >= 0 && int(l) < len(k.linkEp) && k.linkEp[l] == k.ep
}

// holds is cond.Holds on the combination being keyed.
func (k *classKeys) holds(cond *core.Condition) bool {
	if cond == nil {
		return true
	}
	for _, l := range cond.AliveLinks {
		if k.dead(l) {
			return false
		}
	}
	for _, l := range cond.DeadLinks {
		if !k.dead(l) {
			return false
		}
	}
	return true
}

// idSet gathers ids below a fixed bound and drains them in ascending
// order without sorting: a bit per id, and a summary bit per non-zero
// word of those.
type idSet struct {
	words, sum []uint64
}

func newIDSet(n int) idSet {
	w := (n + 63) >> 6
	return idSet{words: make([]uint64, w), sum: make([]uint64, (w+63)>>6)}
}

func (s *idSet) add(id int32) {
	w := id >> 6
	s.words[w] |= 1 << (id & 63)
	s.sum[w>>6] |= 1 << (w & 63)
}

// drain appends the set's ids to dst in ascending order and empties the
// set.
func (s *idSet) drain(dst []int32) []int32 {
	for si, sw := range s.sum {
		for ; sw != 0; sw &= sw - 1 {
			w := si<<6 | bits.TrailingZeros64(sw)
			for word := s.words[w]; word != 0; word &= word - 1 {
				dst = append(dst, int32(w<<6|bits.TrailingZeros64(word)))
			}
			s.words[w] = 0
		}
		s.sum[si] = 0
	}
	return dst
}

// keyIndex numbers class keys: entry i holds key i, and ids finds an
// entry by its key's keySeed hash, the key compared on a hit, like
// corrector signatures.
type keyIndex struct {
	ids    map[uint64]int32
	keys   []byte // entry i's key is keys[keyOff[i]:keyOff[i+1]]
	keyOff []int32
}

func newKeyIndex(hint int) keyIndex {
	return keyIndex{ids: make(map[uint64]int32, hint), keyOff: make([]int32, 1, hint+1)}
}

// find returns the entry whose key, hashed to h, is key; -1 if none.
func (x *keyIndex) find(h uint64, key []byte) int32 {
	if id, ok := x.ids[h]; ok && bytes.Equal(x.keys[x.keyOff[id]:x.keyOff[id+1]], key) {
		return id
	}
	return -1
}

// lookup returns the entry whose key, hashed to h, is key, and true.
// Without one it opens an entry for key and returns it with false: an
// entry ids lists under h, unless key is nil or h already names another
// key, and then one no later lookup finds.
func (x *keyIndex) lookup(h uint64, key []byte) (int32, bool) {
	next := int32(len(x.keyOff) - 1)
	if key != nil {
		id, taken := x.ids[h]
		switch {
		case !taken:
			x.ids[h] = next
		case bytes.Equal(x.keys[x.keyOff[id]:x.keyOff[id+1]], key):
			return id, true
		default:
			key = nil
		}
	}
	x.keys = append(x.keys, key...)
	x.keyOff = append(x.keyOff, int32(len(x.keys)))
	return next, false
}

// classifier assigns the designed set's unit combinations to classes in
// enumeration order.
type classifier struct {
	classKeys
	index keyIndex
	out   *designedClasses
}

// newClassifier returns a classifier for e's designed set with room for
// hint classes.
func newClassifier(e *engine, hint int) *classifier {
	t := newClassTables(e)
	return &classifier{
		classKeys: newClassKeys(e, t, e.plan.Instance.Failures.Units),
		index:     newKeyIndex(hint),
		out:       &designedClasses{repOff: make([]int32, 1, hint+1), repUnits: make([]int, 0, hint), tables: t},
	}
}

// classify returns the class of combo's scenario, opening a new class
// with combo as its representative when no earlier one holds it. A
// scenario that stands alone opens a class of its own, as does one
// whose key shares its hash with an earlier class's different key.
func (c *classifier) classify(combo []int) int {
	key := c.keyOf(combo)
	id, found := c.index.lookup(maphash.Bytes(c.keySeed, key), key)
	if !found {
		out := c.out
		out.repUnits = append(out.repUnits, combo...)
		out.repOff = append(out.repOff, int32(len(out.repUnits)))
	}
	return int(id)
}

// tailClasses is a sampled tail's draws, classified by the designed
// set's equivalence as they are drawn. A draw whose key is a designed
// class's takes that class's outcome from the designed pass of the same
// call. Among the others, the first draw of each key represents its
// class and the later ones take its outcome; a draw that stands alone,
// or whose key's hash another key holds, is a class of its own.
type tailClasses struct {
	keys     classKeys
	designed *designedClasses
	index    keyIndex

	units []int // draw i's units are units[off[i]:off[i+1]]
	off   []int32
	class []int32 // draw i's class: r ≥ 0 the tail class drawn first at reps[r], -1-c designed class c
	reps  []int32
}

// newTailClasses returns an empty tail of the given number of draws over
// units, classified against the designed classes d of e.
func newTailClasses(e *engine, d *designedClasses, units []failures.Unit, draws int) *tailClasses {
	return &tailClasses{
		keys:     newClassKeys(e, d.tables, units),
		designed: d,
		index:    newKeyIndex(0),
		off:      make([]int32, 1, draws+1),
		class:    make([]int32, 0, draws),
	}
}

// draw takes the sampler's next draw and classifies it.
func (t *tailClasses) draw(s *failures.Sampler) {
	t.units = s.NextUnits(t.units)
	combo := t.units[t.off[len(t.off)-1]:]
	t.off = append(t.off, int32(len(t.units)))
	key := t.keys.keyOf(combo)
	h := maphash.Bytes(t.keys.keySeed, key)
	if key != nil {
		if c := t.designed.index.find(h, key); c >= 0 {
			t.class = append(t.class, -1-c)
			return
		}
	}
	r, found := t.index.lookup(h, key)
	if !found {
		t.reps = append(t.reps, int32(len(t.class)))
	}
	t.class = append(t.class, r)
}

// at returns draw i's units.
func (t *tailClasses) at(i int) []int { return t.units[t.off[i]:t.off[i+1]] }

// represents reports whether draw i is realized: the first of its class.
func (t *tailClasses) represents(i int) bool {
	r := t.class[i]
	return r >= 0 && t.reps[r] == int32(i)
}

// outcomes fills the slot of every draw that is not a representative
// from its class: a designed class's slot from designed, a tail class's
// from its representative's, which precedes it.
func (t *tailClasses) outcomes(slots, designed []sweepSlot) {
	for i, r := range t.class {
		switch {
		case r < 0:
			slots[i] = designed[-1-r]
		case t.reps[r] != int32(i):
			slots[i] = slots[t.reps[r]]
		}
	}
}
