package routing

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// proportionalGolden holds, per fixture plan, the FNV-64a hash of
// RealizeProportional's answer and CheckRealization's verdict over the
// plan's designed set followed by 100 seeded beyond-budget scenarios:
// per scenario the error text, or the pairs, the bits of U and ArcLoad
// and every (destination, tunnel, flow bits) in sorted order, then the
// check's error text. The values were recorded before RealizeProportional
// moved onto the engine's index, so they pin that rewrite bit for bit.
var proportionalGolden = map[string]string{
	"fig1-f1":    "c6a491ce5576b275",
	"fig1-f2":    "cf5f0b9b5a707973",
	"fig4":       "821f382230d24c46",
	"fig5-cls":   "37b04a306eef9ecb",
	"fig4-332":   "895a13cfc69e5e4b",
	"sprint-cls": "b2fa1a1bc7d59f56",
}

// proportionalPlans are the gadget plans, the Fig. 4 LS plan with a
// one-hop LS, and the Sprint CLS plan, whose bypass LSs do not sort as a
// whole but every scenario's active ones might.
func proportionalPlans(t *testing.T) []struct {
	name string
	plan *core.Plan
} {
	plans := append(gadgetPlans(t), []struct {
		name string
		plan *core.Plan
	}{
		{"fig4-332", fig4LSPlan(t, 3, 2, 2, 1)},
		{"sprint-cls", sprintCLSPlan(t)},
	}...)
	return plans
}

// hashProportional folds one scenario's proportional answer and check
// verdict into h. It returns the two errors for the caller's asserts.
func hashProportional(h hash.Hash64, plan *core.Plan, sc failures.Scenario) (realizeErr, checkErr error) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "%v|", sc)
	r, err := RealizeProportional(plan, sc)
	if err != nil {
		fmt.Fprintf(h, "error %s|", err)
		return err, nil
	}
	word(uint64(len(r.Pairs)))
	for i, p := range r.Pairs {
		word(uint64(p.Src)<<32 | uint64(p.Dst))
		word(math.Float64bits(r.U[i]))
	}
	word(uint64(len(r.ArcLoad)))
	for _, v := range r.ArcLoad {
		word(math.Float64bits(v))
	}
	dsts := make([]topology.NodeID, 0, len(r.TunnelTo))
	for dst := range r.TunnelTo {
		dsts = append(dsts, dst)
	}
	slices.Sort(dsts)
	for _, dst := range dsts {
		flows := r.TunnelTo[dst]
		tids := make([]tunnels.ID, 0, len(flows))
		for tid := range flows {
			tids = append(tids, tid)
		}
		slices.Sort(tids)
		word(uint64(dst))
		word(uint64(len(tids)))
		for _, tid := range tids {
			word(uint64(tid))
			word(math.Float64bits(flows[tid]))
		}
	}
	cerr := CheckRealization(plan, r)
	fmt.Fprintf(h, "check %v|", cerr)
	return nil, cerr
}

// TestProportionalGolden pins RealizeProportional bit for bit on the
// fixture plans: on a plan whose LSs sort topologically every designed
// scenario realizes and passes CheckRealization (Proposition 7), and on
// every plan the hash of the answers and verdicts, beyond-budget
// scenarios included, is the recorded one.
func TestProportionalGolden(t *testing.T) {
	for _, tc := range proportionalPlans(t) {
		h := fnv.New64a()
		sortable := core.IsTopologicallySortable(tc.plan.Instance.LSs)
		for _, sc := range designedSet(tc.plan) {
			if rerr, cerr := hashProportional(h, tc.plan, sc); sortable && (rerr != nil || cerr != nil) {
				t.Fatalf("%s under designed %v: realize %v, check %v", tc.name, sc, rerr, cerr)
			}
		}
		failed := 0
		for _, sc := range beyondBudget(tc.plan.Instance.Graph, 34, 100) {
			if rerr, cerr := hashProportional(h, tc.plan, sc); rerr != nil || cerr != nil {
				failed++
			}
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		t.Logf("%s: %s (%d beyond-budget scenarios fail)", tc.name, got, failed)
		if want := proportionalGolden[tc.name]; got != want {
			t.Errorf("%s: proportional hash %s, golden %s", tc.name, got, want)
		}
	}
}
