package routing

// Delta ≡ dense, bit for bit. The engine replays a recorded emission
// for every destination a scenario cannot change and checks sparsely;
// the reference below is the dense emission it replaced — every
// destination corrected, row-scanned and poured into maps, every node
// balanced, every arc looked up through ScenarioCapacity — kept here, in
// the test file only, as the oracle. (Its cold scenarios are Realize's,
// the one cold path; the dense linear-system oracle is
// denseoracle_test.go's.)

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/mcf"
	"pcf/internal/tol"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// realizeDenseEmit is the scenario path with the dense emission: the
// engine's own marking, row updates, corrector and residual guard, then
// denseEmit for every destination.
func realizeDenseEmit(s *Sweep, sc failures.Scenario, sr *sweepScratch) (*Realization, served, error) {
	if s.n == 0 {
		return denseEmit(s, sc, sr, nil, nil, 0)
	}
	if s.slu == nil {
		r, err := Realize(s.plan, sc)
		return r, served{}, err
	}
	inCount := s.activate(sc, sr)
	ups, upScale, err := s.rowUpdates(sc, sr, s.changedRows(sr))
	if err != nil {
		return nil, served{}, err
	}
	k := len(ups)
	if k == 0 {
		return denseEmit(s, sc, sr, s.uBase, nil, inCount)
	}
	upd, _ := s.corrector(sr, ups)
	if upd == nil {
		r, err := Realize(s.plan, sc)
		return r, served{}, err
	}
	if cap(sr.smwZ) < k {
		sr.smwZ = make([]float64, k)
		sr.smwY = make([]float64, k)
	}
	if err := upd.CorrectIntoScratch(sr.x, s.uBase, sr.smwZ[:k], sr.smwY[:k]); err != nil {
		return nil, served{}, fmt.Errorf("routing: aggregate system under %v: %w", sc, err)
	}
	if !s.residualOK(sr.x, ups, upScale) {
		r, err := Realize(s.plan, sc)
		return r, served{}, err
	}
	return denseEmit(s, sc, sr, sr.x, upd, inCount)
}

// denseEmit is the emission as it was before the record existed.
func denseEmit(s *Sweep, sc failures.Scenario, sr *sweepScratch, x []float64, upd *linsolve.Updated, inCount int) (*Realization, served, error) {
	in := s.plan.Instance
	ep := sr.epoch
	k := 0
	if upd != nil {
		k = upd.Rank()
	}
	res := &Realization{
		Scenario: sc,
		Pairs:    make([]topology.Pair, 0, inCount),
		U:        make([]float64, 0, inCount),
		TunnelTo: map[topology.NodeID]map[tunnels.ID]float64{},
		ArcLoad:  make([]float64, in.Graph.NumArcs()),
	}
	for r := 0; r < s.n; r++ {
		if sr.inSet[r] != ep {
			continue
		}
		if x[r] < -1e-7 || x[r] > 1+1e-7 {
			return nil, served{}, fmt.Errorf("routing: U[%v] = %g outside [0,1] under %v (Proposition 5 violated — plan not feasible for this scenario)",
				s.pairs[r], x[r], sc)
		}
		res.Pairs = append(res.Pairs, s.pairs[r])
		res.U = append(res.U, x[r])
	}
	for di, dst := range s.dests {
		xt := s.destBase[di]
		if upd != nil {
			if err := upd.CorrectIntoScratch(sr.xt, xt, sr.smwZ[:k], sr.smwY[:k]); err != nil {
				return nil, served{}, fmt.Errorf("routing: destination %d system under %v: %w", dst, sc, err)
			}
			xt = sr.xt
		}
		flows := map[tunnels.ID]float64{}
		for r := 0; r < s.n; r++ {
			if sr.inSet[r] != ep || xt[r] <= 1e-12 {
				continue
			}
			for _, tid := range s.pairTun[r] {
				if sr.deadTun[tid] == ep {
					continue
				}
				rr := xt[r] * s.plan.TunnelRes[tid]
				if rr <= 1e-12 {
					continue
				}
				flows[tid] += rr
				for _, a := range in.Tunnels.Tunnel(tid).Path.Arcs {
					res.ArcLoad[a] += rr
				}
			}
		}
		res.TunnelTo[dst] = flows
	}
	return res, served{smw: true, rank: k}, nil
}

// denseCheck is the check as it was — ScenarioCapacity per arc, then a
// full node vector built and scanned per destination — except that it
// visits destinations in node order where the old one ranged over the
// map.
func denseCheck(plan *core.Plan, r *Realization) error {
	g := plan.Instance.Graph
	for a := 0; a < g.NumArcs(); a++ {
		if c := ScenarioCapacity(g, r.Scenario, topology.ArcID(a)); r.ArcLoad[a] > c+1e-6 {
			return overloadError{a, r.ArcLoad[a], c, r.Scenario}
		}
	}
	targets := denseTargetsOf(plan)
	for t := 0; t < g.NumNodes(); t++ {
		dst := topology.NodeID(t)
		flows, ok := r.TunnelTo[dst]
		if !ok {
			continue
		}
		net := make([]float64, g.NumNodes())
		for tid, v := range flows {
			p := plan.Instance.Tunnels.Tunnel(tid).Pair
			net[p.Src] += v
			net[p.Dst] -= v
		}
		want := targets[dst]
		for v := 0; v < g.NumNodes(); v++ {
			w := 0.0
			if want != nil {
				w = want[v]
			}
			if math.Abs(net[v]-w) > 1e-6 {
				return balanceError{dst, v, net[v], w, r.Scenario}
			}
		}
	}
	return nil
}

// denseTargets holds per plan what denseCheck wants each node to ship
// toward each destination the plan has demand to, computed once: a
// plan is checked under many scenarios, and listing a 1 000-node
// matrix's demand pairs costs a million lookups.
var denseTargets sync.Map // *core.Plan -> map[topology.NodeID][]float64

// denseTargetsOf returns plan's targets: toward dst, the scaled demand
// node -> dst at every other node, and at dst minus the scaled demand
// of every demand pair into it, summed in the matrix's pair order.
func denseTargetsOf(plan *core.Plan) map[topology.NodeID][]float64 {
	if v, ok := denseTargets.Load(plan); ok {
		return v.(map[topology.NodeID][]float64)
	}
	nodes := plan.Instance.Graph.NumNodes()
	targets := map[topology.NodeID][]float64{}
	for _, p := range plan.Instance.DemandPairs() {
		want, ok := targets[p.Dst]
		if !ok {
			want = make([]float64, nodes)
			for v := range want {
				if node := topology.NodeID(v); node != p.Dst {
					want[v] = plan.ScaledDemand(topology.Pair{Src: node, Dst: p.Dst})
				}
			}
			targets[p.Dst] = want
		}
		want[p.Dst] -= plan.ScaledDemand(p)
	}
	denseTargets.Store(plan, targets)
	return targets
}

// denseMLU is MLUOf as it was: no arc skipped, every capacity looked up.
func denseMLU(g *topology.Graph, r *Realization) float64 {
	mlu := 0.0
	for a, load := range r.ArcLoad {
		if c := ScenarioCapacity(g, r.Scenario, topology.ArcID(a)); c > 0 {
			if u := load / c; u > mlu {
				mlu = u
			}
		}
	}
	return mlu
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameRealization requires two realizations to agree in every field,
// floats by bit pattern.
func sameRealization(t *testing.T, what string, got, want *Realization) {
	t.Helper()
	sameFlows(t, what, got, want)
	if len(got.ArcLoad) != len(want.ArcLoad) {
		t.Fatalf("%s: %d arcs, reference %d", what, len(got.ArcLoad), len(want.ArcLoad))
	}
	for a := range want.ArcLoad {
		if !bitsEq(got.ArcLoad[a], want.ArcLoad[a]) {
			t.Fatalf("%s: ArcLoad[%d] = %.17g, reference %.17g", what, a, got.ArcLoad[a], want.ArcLoad[a])
		}
	}
}

// sameFlows requires two realizations to agree in their pairs, U and
// flows, floats by bit pattern.
func sameFlows(t *testing.T, what string, got, want *Realization) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) || len(got.U) != len(want.U) {
		t.Fatalf("%s: %d pairs / %d U, reference %d / %d", what, len(got.Pairs), len(got.U), len(want.Pairs), len(want.U))
	}
	for i := range want.Pairs {
		if got.Pairs[i] != want.Pairs[i] || !bitsEq(got.U[i], want.U[i]) {
			t.Fatalf("%s: pair[%d] = %v U %.17g, reference %v U %.17g", what, i, got.Pairs[i], got.U[i], want.Pairs[i], want.U[i])
		}
	}
	if len(got.TunnelTo) != len(want.TunnelTo) {
		t.Fatalf("%s: %d destinations, reference %d", what, len(got.TunnelTo), len(want.TunnelTo))
	}
	for dst, wf := range want.TunnelTo {
		gf, ok := got.TunnelTo[dst]
		if !ok || len(gf) != len(wf) {
			t.Fatalf("%s: destination %d has %d flows (present %v), reference %d", what, dst, len(gf), ok, len(wf))
		}
		for tid, wv := range wf {
			if gv, ok := gf[tid]; !ok || !bitsEq(gv, wv) {
				t.Fatalf("%s: flow[%d][%d] = %.17g (present %v), reference %.17g", what, dst, tid, gv, ok, wv)
			}
		}
	}
}

// matchesDenseLoop is the rule a low-rank scenario's arc loads keep
// (sweepemit.go): got is the engine's realization, want the dense
// loop's, which sums every flow from zero. Pairs, U and flows agree bit
// for bit. Every arc load lies within loadBounds of the dense loop's —
// bit for bit where exact is set (the cold path, an engine with no
// record) — an arc no flow crosses reads exactly 0, and no load is
// negative. Wherever the dense load lies farther than its bound from
// capacity + Overload, the arc's overload verdict is the dense loop's.
// It reports whether every arc's verdict was so decided.
func matchesDenseLoop(t *testing.T, what string, sw *Sweep, got, want *Realization, exact bool) (decided bool) {
	t.Helper()
	sameFlows(t, what, got, want)
	if exact || sw.rec == nil {
		sameRealization(t, what, got, want)
		return true
	}
	g := sw.plan.Instance.Graph
	ts := sw.plan.Instance.Tunnels
	crossing := make([]int, len(want.ArcLoad))
	for _, flows := range want.TunnelTo {
		for tid := range flows {
			for _, a := range ts.Tunnel(tid).Path.Arcs {
				crossing[a]++
			}
		}
	}
	bound := loadBounds(sw, got, want)
	decided = true
	for a, w := range want.ArcLoad {
		load := got.ArcLoad[a]
		switch {
		case !(load >= 0):
			t.Fatalf("%s: ArcLoad[%d] = %.17g (dense %.17g): negative", what, a, load, w)
		case crossing[a] == 0 && math.Float64bits(load) != 0:
			t.Fatalf("%s: ArcLoad[%d] = %.17g with no flow crossing it", what, a, load)
		case math.Abs(load-w) > bound[a]:
			t.Fatalf("%s: ArcLoad[%d] = %.17g, dense %.17g: %.3g apart, bound %.3g", what, a, load, w, math.Abs(load-w), bound[a])
		}
		c := ScenarioCapacity(g, got.Scenario, topology.ArcID(a))
		if math.Abs(w-(c+tol.Overload)) <= bound[a] {
			decided = false
		} else if overloaded(load, c) != overloaded(w, c) {
			t.Fatalf("%s: arc %d at %.17g overloaded %v, dense %.17g %v (capacity %.17g, bound %.3g)",
				what, a, load, overloaded(load, c), w, overloaded(w, c), c, bound[a])
		}
	}
	return decided
}

// loadBounds is, per arc, how far the rule lets a low-rank load lie
// from the dense loop's: 8·K·RoundOff·(L + |load|), where L is the
// arc's base load and K its base flows plus the flow changes it took
// plus one (DESIGN.md §12, "Arc loads: the base plus what changed").
// A flow changed where got's destination lists it with other bits than
// the record, or only one of them lists it.
func loadBounds(sw *Sweep, got, want *Realization) []float64 {
	rec, ts := sw.rec, sw.plan.Instance.Tunnels
	k := make([]float64, len(got.ArcLoad))
	count := func(tid tunnels.ID) {
		for _, a := range ts.Tunnel(tid).Path.Arcs {
			k[a]++
		}
	}
	for _, tid := range rec.flowTun {
		count(tid)
	}
	for di, dst := range sw.dests {
		base := map[tunnels.ID]float64{}
		for i := rec.flowOff[di]; i < rec.flowOff[di+1]; i++ {
			base[rec.flowTun[i]] = rec.flowVal[i]
		}
		now := want.TunnelTo[dst]
		for tid, v := range now {
			if b, ok := base[tid]; !ok || !bitsEq(b, v) {
				count(tid)
			}
		}
		for tid := range base {
			if _, ok := now[tid]; !ok {
				count(tid)
			}
		}
	}
	for a := range k {
		k[a] = 8 * (k[a] + 1) * tol.RoundOff * (rec.arcLoad[a] + math.Abs(got.ArcLoad[a]))
	}
	return k
}

// flatRealization reads the flat emission in sr out as a Realization
// without going through materialize, so the comparison does not trust
// the code under test to describe itself.
func flatRealization(t *testing.T, s *Sweep, sc failures.Scenario, sr *sweepScratch) *Realization {
	t.Helper()
	res := &Realization{
		Scenario: sc,
		TunnelTo: map[topology.NodeID]map[tunnels.ID]float64{},
		ArcLoad:  append([]float64(nil), sr.arcLoad...),
	}
	for r := 0; r < s.n; r++ {
		if sr.inSet[r] == sr.epoch {
			res.Pairs = append(res.Pairs, s.pairs[r])
			res.U = append(res.U, sr.sol[r])
		}
	}
	for di, dst := range s.dests {
		tuns, vals := s.destFlows(sr, di)
		flows := map[tunnels.ID]float64{}
		for i, tid := range tuns {
			if _, dup := flows[tid]; dup {
				t.Fatalf("under %v: destination %d lists tunnel %d twice", sc, dst, tid)
			}
			flows[tid] = vals[i]
		}
		res.TunnelTo[dst] = flows
	}
	return res
}

// deltaTally is what assertDeltaMatchesDense saw, so callers can require
// that the paths they mean to exercise were taken. undecided counts the
// scenarios with an arc whose dense load lies within its bound of
// capacity + Overload, where the verdict need not be the dense loop's.
type deltaTally struct {
	smw, cold, realizeErrs, checkErrs int
	evals, replays                    int
	undecided                         int
}

// verdictKind is what a verdict names, whatever loads it quotes: an
// overloaded arc, a destination and node out of balance, or, for any
// other error, its text ("" for none).
func verdictKind(err error) string {
	if err == nil {
		return ""
	}
	var a, b int
	if n, _ := fmt.Sscanf(err.Error(), "routing: arc %d", &a); n == 1 {
		return fmt.Sprintf("arc %d", a)
	}
	if n, _ := fmt.Sscanf(err.Error(), "routing: destination %d node %d", &a, &b); n == 2 {
		return fmt.Sprintf("destination %d node %d", a, b)
	}
	return err.Error()
}

// assertDeltaMatchesDense runs every scenario through a new engine for
// plan, against the dense reference (assertEngineMatchesDense) and
// through the public API (assertPublicMatchesFlat).
func assertDeltaMatchesDense(t *testing.T, name string, plan *core.Plan, scenarios []failures.Scenario) deltaTally {
	t.Helper()
	sw := newSweep(t, plan)
	tally := assertEngineMatchesDense(t, name, sw, scenarios)
	assertPublicMatchesFlat(t, name, sw, scenarios)
	return tally
}

// assertPublicMatchesFlat requires the public Realize of every scenario
// to be the flat emission the engine judges — the same error, or every
// field bit for bit, and MLUOf of it the judged MLU — and Check and
// CheckRealization of it to name what the engine's check names.
func assertPublicMatchesFlat(t *testing.T, name string, sw *Sweep, scenarios []failures.Scenario) {
	t.Helper()
	g := sw.plan.Instance.Graph
	sr := sw.newScratch()
	for _, sc := range scenarios {
		what := fmt.Sprintf("%s under %v", name, sc)
		_, err := sw.realize(sc, sr)
		pub, perr := sw.Realize(sc)
		if verdictText(perr) != verdictText(err) {
			t.Fatalf("%s: Realize err %v, engine err %v", what, perr, err)
		}
		if err != nil {
			continue
		}
		sameRealization(t, what+" (Realize)", pub, flatRealization(t, sw, sc, sr))
		mlu, jerr := sw.judge(sc, sr, nil, true)
		for _, err := range []error{sw.Check(pub), CheckRealization(sw.plan, pub)} {
			if verdictKind(err) != verdictKind(jerr) {
				t.Fatalf("%s: public check %v, engine %v", what, err, jerr)
			}
		}
		if jerr == nil && !bitsEq(MLUOf(g, pub), mlu) {
			t.Fatalf("%s: MLUOf %.17g, engine %.17g", what, MLUOf(g, pub), mlu)
		}
	}
}

// assertEngineMatchesDense runs every scenario through the engine and
// through the dense reference and requires: the same realize error
// text or, by matchesDenseLoop, the same pairs, U and flows and arc
// loads within their bound; the same check verdict as the dense
// loop's wherever every arc's verdict is decided; the check's verdict
// and MLU over the engine's own loads exactly the dense check's and
// MLU's over them; and every slot of a 4-worker sweep the serial
// judge's, bit for bit.
func assertEngineMatchesDense(t *testing.T, name string, sw *Sweep, scenarios []failures.Scenario) deltaTally {
	t.Helper()
	plan := sw.plan
	g := plan.Instance.Graph
	sr, ref := sw.newScratch(), sw.newScratch()
	var tally deltaTally
	wantMLU := make([]float64, len(scenarios))
	wantErr := make([]string, len(scenarios))
	for i, sc := range scenarios {
		what := fmt.Sprintf("%s under %v", name, sc)
		want, wsv, werr := realizeDenseEmit(sw, sc, ref)
		sv, gerr := sw.realize(sc, sr)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s: engine err %v, reference err %v", what, gerr, werr)
		}
		if werr != nil {
			tally.realizeErrs++
			wantErr[i] = werr.Error()
			continue
		}
		if sv.smw != wsv.smw || sv.rank != wsv.rank {
			t.Fatalf("%s: engine served %+v, reference %+v", what, sv, wsv)
		}
		if sv.smw {
			tally.smw++
			tally.evals += sv.evals
			tally.replays += sv.replays
		} else {
			tally.cold++
		}
		got := flatRealization(t, sw, sc, sr)
		decided := matchesDenseLoop(t, what+" (flat)", sw, got, want, !sv.smw)

		mlu, jerr := sw.judge(sc, sr, nil, true)
		if cerr := denseCheck(plan, got); verdictKind(jerr) != verdictKind(cerr) ||
			(jerr != nil && strings.HasPrefix(verdictKind(jerr), "arc") && jerr.Error() != cerr.Error()) {
			t.Fatalf("%s: engine reports %v, dense check of its loads %v", what, jerr, cerr)
		}
		// Where every arc is decided, each arc's verdict is the dense
		// loop's (matchesDenseLoop) and the flows are its bits, so the
		// dense check of the dense loop's realization would name what
		// the dense check of the engine's just named.
		if !decided {
			tally.undecided++
		}
		if jerr != nil {
			tally.checkErrs++
			wantErr[i] = jerr.Error()
			continue
		}
		wantMLU[i] = mlu
		if !bitsEq(mlu, denseMLU(g, got)) {
			t.Fatalf("%s: MLU %.17g, dense MLU of its loads %.17g", what, mlu, denseMLU(g, got))
		}
	}

	old := sweepWorkerCount
	sweepWorkerCount = func() int { return 4 }
	defer func() { sweepWorkerCount = old }()
	slots, stats := sweepScenarios(context.Background(), sw, true, false, scenarios)
	for i := range slots {
		if !slots[i].done || verdictText(slots[i].err) != wantErr[i] || !bitsEq(slots[i].mlu, wantMLU[i]) {
			t.Fatalf("%s under %v: 4-worker sweep slot %+v, serial mlu %.17g err %q", name, scenarios[i], slots[i], wantMLU[i], wantErr[i])
		}
	}
	if len(scenarios) >= 2 && stats.Workers < 2 {
		t.Fatalf("%s: sweep ran on %d workers", name, stats.Workers)
	}
	if stats.DestEvals != tally.evals || stats.DestReplays != tally.replays {
		t.Fatalf("%s: sweep counts %d evals / %d replays, serial pass %d / %d", name, stats.DestEvals, stats.DestReplays, tally.evals, tally.replays)
	}
	return tally
}

// beyondBudget draws seeded scenarios outside any designed set: 2–5
// dead links and 0–2 degraded ones each.
func beyondBudget(g *topology.Graph, seed int64, n int) []failures.Scenario {
	rng := rand.New(rand.NewSource(seed))
	out := make([]failures.Scenario, n)
	for i := range out {
		perm := rng.Perm(g.NumLinks())
		dead := min(2+rng.Intn(4), len(perm))
		sc := failures.Scenario{Dead: map[topology.LinkID]bool{}}
		for _, l := range perm[:dead] {
			sc.Dead[topology.LinkID(l)] = true
		}
		for _, l := range perm[dead:min(dead+rng.Intn(3), len(perm))] {
			if sc.Degraded == nil {
				sc.Degraded = map[topology.LinkID]float64{}
			}
			sc.Degraded[topology.LinkID(l)] = 0.2 + 0.7*rng.Float64()
		}
		out[i] = sc
	}
	return out
}

// benchInstance prepares a zoo topology the way the benchmark's
// workloads do (eval.Prepare, which this package cannot import): pruned
// of degree-one nodes, the top pairs of the seed-1 gravity matrix, three
// tunnels per pair, demand scaled to an MLU of 0.6.
func benchInstance(t *testing.T, topo string, maxPairs, budget int) *core.Instance {
	t.Helper()
	g, _ := topozoo.MustLoad(topo).PruneDegreeOne()
	tm := traffic.Gravity(g, traffic.GravityOptions{Seed: 1, Jitter: 0.4})
	pairs := tm.TopPairs(maxPairs)
	tm = tm.Restrict(pairs)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tm, _, err = mcf.ScaleToMLU(g, tm, 0.6, 0.63); err != nil {
		t.Fatal(err)
	}
	return &core.Instance{
		Graph: g, TM: tm, Tunnels: ts,
		Failures: failures.SingleLinks(g, budget), Objective: core.DemandScale,
	}
}

// btnaPlans solves the benchmark's BTNorthAmerica f=2 instance (40
// pairs, gravity seed 1) as PCF-TF and, over BuildCLSQuick's bypass
// sequences, as PCF-CLS.
func btnaPlans(t *testing.T) (tf, cls *core.Plan) {
	t.Helper()
	in := benchInstance(t, "BTNorthAmerica", 40, 2)
	tf, err := core.SolvePCFTF(in, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clsIn, _, err := core.BuildCLSQuick(in)
	if err != nil {
		t.Fatal(err)
	}
	if cls, err = core.SolvePCFCLS(clsIn, core.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	return tf, cls
}

// deltaPlans are the plans the equivalence is pinned on: the gadgets,
// Sprint with sequences that activate under failure, and — outside
// -short — the benchmark's BTNorthAmerica pair.
func deltaPlans(t *testing.T) []struct {
	name string
	plan *core.Plan
} {
	plans := gadgetPlans(t)
	add := func(name string, plan *core.Plan) {
		plans = append(plans, struct {
			name string
			plan *core.Plan
		}{name, plan})
	}
	add("fig4-332", fig4LSPlan(t, 3, 2, 2, 1))
	add("corollary", corollaryPlan(t))
	if !testing.Short() {
		add("sprint-cls", sprintCLSPlan(t))
		tf, cls := btnaPlans(t)
		add("btna-tf-f2", tf)
		add("btna-cls-f2", cls)
	}
	return plans
}

// TestDeltaEmissionMatchesDense: on every designed scenario and on
// seeded beyond-budget ones with degradation, the delta path and the
// dense reference agree bit for bit, serially and on a forced 4-worker
// pool (which is what gives -race something to examine).
func TestDeltaEmissionMatchesDense(t *testing.T) {
	var total deltaTally
	for _, tc := range deltaPlans(t) {
		scenarios := append(designedSet(tc.plan), beyondBudget(tc.plan.Instance.Graph, 22, 300)...)
		tally := assertDeltaMatchesDense(t, tc.name, tc.plan, scenarios)
		t.Logf("%s: %d scenarios: %d smw (%d of %d destination emissions replayed), %d cold, %d unrealizable, %d rejected",
			tc.name, len(scenarios), tally.smw, tally.replays, tally.evals, tally.cold, tally.realizeErrs, tally.checkErrs)
		if tally.smw == 0 {
			t.Fatalf("%s: the low-rank path never ran", tc.name)
		}
		total.replays += tally.replays
		total.evals += tally.evals
		total.cold += tally.cold
		total.checkErrs += tally.checkErrs
	}
	if total.replays == 0 || total.replays == total.evals {
		t.Fatalf("%d of %d destination emissions replayed: both branches must run", total.replays, total.evals)
	}
	if total.cold != 0 || total.checkErrs == 0 {
		t.Fatalf("%d cold fallbacks (no scenario should leave the low-rank path on its own) and %d rejected scenarios (the comparison should see some)", total.cold, total.checkErrs)
	}

	// The cold branch of the comparison, which nothing reaches unforced
	// now that rank is no cause: an injected corrector fault that is a
	// pure function of the updates, so the engine, the reference and
	// every sweep worker send the same scenarios cold.
	SweepUpdateFault = func(ups []linsolve.RowUpdate) error {
		if len(ups)%2 == 0 {
			return linsolve.ErrIllConditioned
		}
		return nil
	}
	defer func() { SweepUpdateFault = nil }()
	plan := fig5CLSPlan(t)
	scenarios := append(designedSet(plan), beyondBudget(plan.Instance.Graph, 22, 300)...)
	if tally := assertDeltaMatchesDense(t, "fig5-cls, even ranks faulted", plan, scenarios); tally.cold == 0 || tally.smw == 0 {
		t.Fatalf("%d cold and %d low-rank scenarios under the injected fault: the comparison needs both", tally.cold, tally.smw)
	}
}

// handPlan assembles a plan from literal reservations: a hand-drawn
// graph, tunnels over listed links and hand-set Z, a_l and b_q.
type handPlan struct {
	in     *core.Instance
	z      map[topology.Pair]float64
	tunRes map[tunnels.ID]float64
	lsRes  map[core.LSID]float64
}

func newHandPlan(nodes int, links [][2]int, budget int) *handPlan {
	g := topology.New("hand")
	for i := 0; i < nodes; i++ {
		g.AddNode(fmt.Sprint(i))
	}
	for _, l := range links {
		g.AddLink(topology.NodeID(l[0]), topology.NodeID(l[1]), 1e6)
	}
	return &handPlan{
		in: &core.Instance{
			Graph:     g,
			TM:        traffic.NewMatrix(nodes),
			Tunnels:   tunnels.NewSet(g),
			Failures:  failures.SingleLinks(g, budget),
			Objective: core.DemandScale,
		},
		z:      map[topology.Pair]float64{},
		tunRes: map[tunnels.ID]float64{},
		lsRes:  map[core.LSID]float64{},
	}
}

func (h *handPlan) plan() *core.Plan {
	return &core.Plan{Scheme: "hand", Instance: h.in, Z: h.z, TunnelRes: h.tunRes, LSRes: h.lsRes}
}

// tunnel adds a tunnel for (a,b) over the listed links, traversed in
// order from a, with the given reservation.
func (h *handPlan) tunnel(a, b int, res float64, links ...int) tunnels.ID {
	at := topology.NodeID(a)
	var arcs []topology.ArcID
	for _, l := range links {
		lk := h.in.Graph.Link(topology.LinkID(l))
		if lk.A == at {
			arcs, at = append(arcs, lk.Forward()), lk.B
		} else {
			arcs, at = append(arcs, lk.Reverse()), lk.A
		}
	}
	p := topology.Pair{Src: topology.NodeID(a), Dst: topology.NodeID(b)}
	id := h.in.Tunnels.MustAdd(p, topology.Path{Arcs: arcs})
	h.tunRes[id] = res
	return id
}

func (h *handPlan) demand(a, b int, d float64) {
	p := topology.Pair{Src: topology.NodeID(a), Dst: topology.NodeID(b)}
	h.in.TM.Set(p, d)
	h.z[p] = 1
}

func (h *handPlan) ls(a, b int, res float64, cond *core.Condition, hops ...int) {
	q := core.LogicalSequence{ID: core.LSID(len(h.in.LSs)), Pair: topology.Pair{Src: topology.NodeID(a), Dst: topology.NodeID(b)}, Cond: cond}
	for _, v := range hops {
		q.Hops = append(q.Hops, topology.NodeID(v))
	}
	h.in.LSs = append(h.in.LSs, q)
	h.lsRes[q.ID] = res
}

// TestDeltaAffectedWithoutRowUpdate pins the edge the affected rule is
// stated over marked rows for, not over updated rows. A non-seed row in
// the pair set always carries −b of the sequence that brought it in, so
// a membership flip always changes some coefficient; what can leave the
// matrix untouched is a dead tunnel whose reservation vanishes in the
// diagonal's rounding. Here pair 0→1 reserves 2e4 on one tunnel and
// 1.5e-12 on a second: their sum is 2e4 exactly, so killing the second
// produces no row update and the aggregate system stands — but at
// U = 1 the tunnel carried 1.5e-12 > 1e-12, a flow the scenario's
// emission must drop. The destination has to be emitted afresh.
func TestDeltaAffectedWithoutRowUpdate(t *testing.T) {
	h := newHandPlan(3, [][2]int{{0, 1}, {0, 2}, {2, 1}}, 1)
	h.tunnel(0, 1, 2e4, 0)
	tiny := h.tunnel(0, 1, 1.5e-12, 1, 2)
	h.demand(0, 1, 2e4)
	plan := h.plan()
	sw := newSweep(t, plan)
	if sw.slu == nil || sw.rec == nil {
		t.Fatal("engine is cold-only")
	}
	lo, hi := sw.rec.flowOff[0], sw.rec.flowOff[1]
	if hi-lo != 2 || sw.rec.flowTun[lo+1] != tiny {
		t.Fatalf("base record %v / %v does not carry the tiny tunnel", sw.rec.flowTun[lo:hi], sw.rec.flowVal[lo:hi])
	}
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{1: true}}
	sr := sw.newScratch()
	sw.activate(sc, sr)
	rows := sw.changedRows(sr)
	ups, _, err := sw.rowUpdates(sc, sr, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(ups) != 0 {
		t.Fatalf("marked rows %v, updates %v: want one marked row and no update", rows, ups)
	}
	sv, err := sw.realize(sc, sr)
	if err != nil {
		t.Fatal(err)
	}
	if !sv.smw || sv.rank != 0 || sv.replays != 0 || sr.destMark[0] != sr.epoch {
		t.Fatalf("served %+v: the destination must be emitted afresh at rank 0", sv)
	}
	if tuns, _ := sw.destFlows(sr, 0); len(tuns) != 1 || tuns[0] == tiny {
		t.Fatalf("emission still carries the dead tunnel: %v", tuns)
	}
	assertDeltaMatchesDense(t, "tiny-tunnel", plan, designedSet(plan))
}

// TestDeltaAffectedOnMembershipFlip is the same rule on the membership
// side: pair 0→2 rides a sequence through 1 that holds while link 3 is
// alive, and segment 0→1 has a single tunnel reserved at exactly 1, so
// when the sequence drops and 0→1 leaves the pair set its diagonal does
// not move (1 → the identity's 1); the whole update is the −b entry in
// the parent's column. The destination is affected through the marked
// row and its emission must lose the segment's flow.
func TestDeltaAffectedOnMembershipFlip(t *testing.T) {
	plan, seg := membershipFlipPlan()
	sw := newSweep(t, plan)
	if sw.slu == nil || sw.rec == nil {
		t.Fatal("engine is cold-only")
	}
	sc := failures.Scenario{Dead: map[topology.LinkID]bool{3: true}}
	sr := sw.newScratch()
	sw.activate(sc, sr)
	rows := sw.changedRows(sr)
	ups, _, err := sw.rowUpdates(sc, sr, rows)
	if err != nil {
		t.Fatal(err)
	}
	segRow, parent := sw.index[topology.Pair{Src: 0, Dst: 1}], sw.index[topology.Pair{Src: 0, Dst: 2}]
	if !sw.baseInSet[segRow] || sr.inSet[segRow] == sr.epoch {
		t.Fatalf("segment row %d does not leave the pair set", segRow)
	}
	found := false
	for _, up := range ups {
		if up.Row == segRow {
			found = len(up.Cols) == 1 && up.Cols[0] == parent
		}
	}
	if !found {
		t.Fatalf("updates %+v: want segment row %d updated in the parent's column %d only, its diagonal unmoved", ups, segRow, parent)
	}
	sv, err := sw.realize(sc, sr)
	if err != nil {
		t.Fatal(err)
	}
	if !sv.smw || sv.replays != 0 {
		t.Fatalf("served %+v: the destination must be emitted afresh", sv)
	}
	tuns, _ := sw.destFlows(sr, 0)
	for _, tid := range tuns {
		if tid == seg {
			t.Fatalf("emission still routes over the departed segment: %v", tuns)
		}
	}
	assertDeltaMatchesDense(t, "membership-flip", plan, designedSet(plan))
}

// membershipFlipPlan is TestDeltaAffectedOnMembershipFlip's plan and
// its segment tunnel 0→1. Link 3 is the condition's and carries
// nothing, so killing it flips the sequence and kills no tunnel; pairs
// 4→2, 5→2 and 6→2 only widen the system.
func membershipFlipPlan() (*core.Plan, tunnels.ID) {
	h := newHandPlan(7, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {4, 2}, {5, 2}, {6, 2}}, 1)
	h.tunnel(0, 2, 1, 2)
	seg := h.tunnel(0, 1, 1, 0)
	h.tunnel(1, 2, 1, 1)
	h.demand(0, 2, 1)
	h.ls(0, 2, 1, core.LinkAlive(3), 1)
	for i, v := range []int{4, 5, 6} {
		h.tunnel(v, 2, 1, 4+i)
		h.demand(v, 2, 0.5)
	}
	return h.plan(), seg
}

// balanceVerdict parses "destination d node v" out of a balance error.
func balanceVerdict(t *testing.T, err error) (dst, node int) {
	t.Helper()
	if err == nil {
		t.Fatal("check accepted a corrupted emission")
	}
	if n, _ := fmt.Sscanf(err.Error(), "routing: destination %d node %d", &dst, &node); n != 2 {
		t.Fatalf("not a balance verdict: %v", err)
	}
	return dst, node
}

// TestSparseBalanceMutations: the balance check visits touched nodes
// only, so each way a flow list can go wrong must still be caught — by
// the flat check, by Sweep.Check and by CheckRealization, on the same
// destination and node: a flow off by 1e-5, a flow missing, and flow
// between two nodes the destination wants nothing from.
func TestSparseBalanceMutations(t *testing.T) {
	plan := sprintCLSPlanOrSkip(t)
	sw := newSweep(t, plan)
	nodes := len(sw.destIndex)
	sc := failures.Scenario{}

	// load installs per-destination flow lists as the scratch's flat
	// emission, every destination marked emitted afresh.
	load := func(sr *sweepScratch, tuns [][]tunnels.ID, vals [][]float64) {
		sr.flowTun, sr.flowVal = sr.flowTun[:0], sr.flowVal[:0]
		for di := range sw.dests {
			sr.destMark[di] = sr.epoch
			sr.flowOff[di] = int32(len(sr.flowTun))
			sr.flowTun = append(sr.flowTun, tuns[di]...)
			sr.flowVal = append(sr.flowVal, vals[di]...)
		}
		sr.flowOff[len(sw.dests)] = int32(len(sr.flowTun))
	}
	mutate := func(name string, edit func(tuns [][]tunnels.ID, vals [][]float64) (di int)) {
		sr := sw.newScratch()
		if _, err := sw.realize(sc, sr); err != nil {
			t.Fatal(err)
		}
		tuns := make([][]tunnels.ID, len(sw.dests))
		vals := make([][]float64, len(sw.dests))
		for di := range sw.dests {
			tu, va := sw.destFlows(sr, di)
			tuns[di], vals[di] = append([]tunnels.ID(nil), tu...), append([]float64(nil), va...)
		}
		load(sr, tuns, vals)
		if _, err := sw.judge(sc, sr, nil, true); err != nil {
			t.Fatalf("%s: unmutated emission rejected: %v", name, err)
		}
		di := edit(tuns, vals)
		load(sr, tuns, vals)
		r := sw.materialize(sc, sr)
		_, ferr := sw.judge(sc, sr, nil, true)
		fd, fv := balanceVerdict(t, ferr)
		if fd != int(sw.dests[di]) {
			t.Fatalf("%s: flat check blames destination %d, mutated %d", name, fd, sw.dests[di])
		}
		for _, err := range []error{sw.Check(r), CheckRealization(plan, r), denseCheck(plan, r)} {
			if d, v := balanceVerdict(t, err); d != fd || v != fv {
				t.Fatalf("%s: flat check blames destination %d node %d, other check says %v", name, fd, fv, err)
			}
		}
	}

	mutate("perturbed", func(tuns [][]tunnels.ID, vals [][]float64) int {
		vals[1][0] += 1e-5
		return 1
	})
	mutate("dropped", func(tuns [][]tunnels.ID, vals [][]float64) int {
		last := len(tuns[2]) - 1
		tuns[2], vals[2] = tuns[2][:last], vals[2][:last]
		return 2
	})
	mutate("stray", func(tuns [][]tunnels.ID, vals [][]float64) int {
		// A tunnel whose endpoints both want nothing of destination 0
		// and that it does not already use: only the flow's own
		// endpoints bring those nodes into the check.
		want := make([]float64, nodes)
		for i, v := range sw.wantNodes.at(0) {
			want[v] = sw.wantVals[sw.wantNodes.off[0]:][i]
		}
		used := map[tunnels.ID]bool{}
		for _, tid := range tuns[0] {
			used[tid] = true
		}
		ts := plan.Instance.Tunnels
		for id := 0; id < ts.Len(); id++ {
			p := ts.Tunnel(tunnels.ID(id)).Pair
			if want[p.Src] == 0 && want[p.Dst] == 0 && !used[tunnels.ID(id)] {
				tuns[0], vals[0] = append(tuns[0], tunnels.ID(id)), append(vals[0], 0.25)
				return 0
			}
		}
		t.Fatal("no tunnel between two nodes destination 0 wants nothing from")
		return 0
	})
}

// sprintCLSPlanOrSkip is sprintCLSPlan for tests that need a plan with
// several destinations and are skipped with the slow ones.
func sprintCLSPlanOrSkip(t *testing.T) *core.Plan {
	t.Helper()
	if testing.Short() {
		t.Skip("Sprint CLS plan solve is slow")
	}
	return sprintCLSPlan(t)
}

// TestReplayedDestinationIsChecked: replay is not an exemption. With
// one recorded base flow corrupted, every scenario that replays that
// destination fails its balance check, every scenario that emits it
// afresh passes, and the sweep as a whole reports the plan invalid.
func TestReplayedDestinationIsChecked(t *testing.T) {
	plan := sprintCLSPlanOrSkip(t)
	sw := newSweep(t, plan)
	if _, err := sw.ValidateStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	const di = 1
	restore := sw.CorruptBaseFlow(di, 1e-3)
	sr := sw.newScratch()
	replayed, fresh := 0, 0
	for _, sc := range designedSet(plan) {
		sv, err := sw.realize(sc, sr)
		if err != nil || !sv.smw {
			continue
		}
		_, jerr := sw.judge(sc, sr, nil, true)
		if sr.destMark[di] != sr.epoch {
			replayed++
			if d, _ := balanceVerdict(t, jerr); d != int(sw.dests[di]) {
				t.Fatalf("under %v: verdict %v blames the wrong destination", sc, jerr)
			}
		} else {
			fresh++
			if jerr != nil {
				t.Fatalf("under %v: destination emitted afresh, yet %v", sc, jerr)
			}
		}
	}
	if replayed == 0 || fresh == 0 {
		t.Fatalf("%d scenarios replayed the destination, %d emitted it afresh: need both", replayed, fresh)
	}
	if _, err := sw.ValidateStats(context.Background()); err == nil {
		t.Fatal("sweep accepted a plan whose replayed emission is corrupt")
	}
	restore()
	if _, err := sw.ValidateStats(context.Background()); err != nil {
		t.Fatalf("after restore: %v", err)
	}
}

// TestSweepVerdictDeterministic: an invalid plan is reported with the
// same scenario, destination, node and value on every run — the first
// overloaded arc if any, else the first destination in node order —
// whichever of the checks produces the verdict. The plan is Sprint CLS
// with its demand scaled 1.2× past the guarantee.
func TestSweepVerdictDeterministic(t *testing.T) {
	plan := sprintCLSPlanOrSkip(t)
	scaled := map[topology.Pair]float64{}
	for p, z := range plan.Z {
		scaled[p] = 1.2 * z
	}
	over := &core.Plan{Scheme: plan.Scheme, Objective: plan.Objective, Instance: plan.Instance,
		Z: scaled, TunnelRes: plan.TunnelRes, LSRes: plan.LSRes}
	var first string
	for run := 0; run < 5; run++ {
		_, err := ValidateStats(context.Background(), over, ValidateOptions{})
		if err == nil {
			t.Fatal("plan scaled 1.2× past its guarantee validated")
		}
		if run == 0 {
			first = err.Error()
			t.Logf("verdict: %v", err)
		} else if err.Error() != first {
			t.Fatalf("run %d reports %q, run 0 %q", run, err, first)
		}
	}
	// Several destinations out of balance at once: both public checks
	// must name the lowest-numbered one, every time, where ranging over
	// TunnelTo named whichever the map served first.
	sw := newSweep(t, plan)
	r, err := sw.Realize(failures.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TunnelTo) < 3 {
		t.Fatalf("only %d destinations", len(r.TunnelTo))
	}
	for _, flows := range r.TunnelTo {
		for tid := range flows {
			flows[tid] += 0.5
		}
	}
	want := CheckRealization(plan, r)
	if d, _ := balanceVerdict(t, want); d != int(sw.dests[0]) {
		t.Fatalf("verdict %v does not name the first destination %d", want, sw.dests[0])
	}
	for run := 0; run < 20; run++ {
		for _, got := range []error{CheckRealization(plan, r), sw.Check(r)} {
			if got == nil || got.Error() != want.Error() {
				t.Fatalf("run %d: verdict %v, first run said %v", run, got, want)
			}
		}
	}
}

// withCapacities returns the plan over a copy of its graph with every
// link's capacity scaled by f: the same reservations, the same flows,
// other verdicts.
func withCapacities(plan *core.Plan, f float64) *core.Plan {
	g := plan.Instance.Graph
	h := topology.New(g.Name)
	for v := 0; v < g.NumNodes(); v++ {
		h.AddNode(g.NodeName(topology.NodeID(v)))
	}
	for _, l := range g.Links() {
		h.AddWeightedLink(l.A, l.B, f*l.Capacity, l.Weight)
	}
	in := *plan.Instance
	in.Graph = h
	return &core.Plan{Scheme: plan.Scheme, Objective: plan.Objective, Instance: &in,
		Z: plan.Z, TunnelRes: plan.TunnelRes, LSRes: plan.LSRes}
}

// TestRecordedArcVerdicts: an arc a scenario neither re-sums nor
// overlays carries the record's verdict — overloaded or not, and its
// utilization — so the record must stand in for the dense arc pass
// exactly, including where the base itself overloads. The plan is
// Sprint CLS with its capacities cut until the base overloads the most
// utilized third of its loaded arcs: a scenario's first overloaded arc
// is sometimes one it re-summed or overlaid and sometimes one only the
// record vouches for, and both must match the dense oracle's verdict,
// as the unchecked MLU must match its MLU.
func TestRecordedArcVerdicts(t *testing.T) {
	base := sprintCLSPlanOrSkip(t)
	unscaled := newSweep(t, base)
	rec := unscaled.rec
	third := rec.ranked[len(rec.ranked)/3]
	plan := withCapacities(base, 0.999*unscaled.baseLoad(third)/base.Instance.Graph.ArcCapacity(topology.ArcID(third)))
	scenarios := append(designedSet(plan), beyondBudget(plan.Instance.Graph, 26, 300)...)
	if tally := assertDeltaMatchesDense(t, "sprint-cls, capacities cut", plan, scenarios); tally.checkErrs == 0 {
		t.Fatal("no scenario overloads")
	}
	sw := newSweep(t, plan)
	if len(sw.rec.over) <= len(rec.ranked)/3 {
		t.Fatalf("the base overloads %d arcs, want more than %d", len(sw.rec.over), len(rec.ranked)/3)
	}
	g := plan.Instance.Graph
	sr := sw.newScratch()
	fromRecord, visited := 0, 0
	for _, sc := range scenarios {
		sv, err := sw.realize(sc, sr)
		if err != nil || !sv.smw {
			continue
		}
		mlu, _ := sw.judge(sc, sr, nil, false)
		if want := denseMLU(g, flatRealization(t, sw, sc, sr)); !bitsEq(mlu, want) {
			t.Fatalf("under %v: unchecked MLU %.17g, reference %.17g", sc, mlu, want)
		}
		_, jerr := sw.judge(sc, sr, nil, true)
		var a int
		if jerr == nil {
			continue
		}
		if n, _ := fmt.Sscanf(jerr.Error(), "routing: arc %d", &a); n != 1 {
			continue
		}
		l := topology.LinkOf(topology.ArcID(a))
		if _, degraded := sc.Degraded[l]; sr.arcFlows[a] < 0 && !sc.Dead[l] && !degraded {
			fromRecord++
		} else {
			visited++
		}
	}
	if fromRecord == 0 || visited == 0 {
		t.Fatalf("%d overload verdicts from the record, %d from visited arcs: need both", fromRecord, visited)
	}

	// An overlay that raises a capacity drops the base's most utilized
	// arc below arcs it outranked: the ranking must pass over it.
	for _, scale := range []float64{4, 1} {
		sc := failures.Scenario{Degraded: map[topology.LinkID]float64{topology.LinkOf(topology.ArcID(sw.rec.ranked[0])): scale}}
		if _, err := sw.realize(sc, sr); err != nil {
			t.Fatal(err)
		}
		mlu, _ := sw.judge(sc, sr, nil, false)
		if want := denseMLU(g, flatRealization(t, sw, sc, sr)); !bitsEq(mlu, want) {
			t.Fatalf("under %v: unchecked MLU %.17g, reference %.17g", sc, mlu, want)
		}
	}
}

// TestSweepScenarioAllocs: a warm designed scenario through the sweep
// path — realize, then judge from the flat emission — allocates nothing
// that scales with destinations, arcs, nodes or its rank: the row
// updates and their signature live in the worker's scratch, a batch
// hit is looked up without building a key, and the touched arcs'
// state is their entries in the scratch's existing arc arrays.
func TestSweepScenarioAllocs(t *testing.T) {
	plan := sprintCLSPlanOrSkip(t)
	sw := newSweep(t, plan)
	if _, err := sw.ValidateStats(context.Background()); err != nil {
		t.Fatal(err)
	}
	sr := sw.newScratch()
	for _, sc := range designedSet(plan) {
		sv, err := sw.realize(sc, sr)
		if err != nil || !sv.smw {
			continue
		}
		allocs := testing.AllocsPerRun(20, func() {
			_, err := sw.realize(sc, sr)
			if err == nil {
				_, err = sw.judge(sc, sr, nil, true)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if limit := 2.0; allocs > limit {
			t.Fatalf("under %v (rank %d, %d destinations, %d arcs): %.0f allocations per scenario, want ≤ %.0f",
				sc, sv.rank, len(sw.dests), len(sw.arcCap), allocs, limit)
		}
		if sv.rank == 0 && allocs != 0 {
			t.Fatalf("under %v: a rank-0 scenario allocates %.0f times", sc, allocs)
		}
	}
}

// TestCorrectorHashCollision: the corrector cache is keyed by a hash of
// the update signature, so two signatures can share a key, and the
// entry's own signature decides. A scenario whose hash finds another
// signature's entry — here a planted decoy that would send it cold — is
// served by a corrector built for its own updates, uncached, bit for
// bit as the dense oracle serves it, and the decoy stays.
func TestCorrectorHashCollision(t *testing.T) {
	plan := fig5CLSPlan(t)
	sw := newSweep(t, plan)
	sr, ref := sw.newScratch(), sw.newScratch()
	for _, sc := range designedSet(plan) {
		sw.activate(sc, sr)
		ups, _, err := sw.rowUpdates(sc, sr, sw.changedRows(sr))
		if err != nil || len(ups) == 0 {
			continue
		}
		h := maphash.Bytes(sw.keySeed, upsKey(nil, ups))
		decoy := &batchEntry{key: "decoy", err: linsolve.ErrSingular}
		sw.cors.m.Store(h, decoy)
		want, _, werr := realizeDenseEmit(sw, sc, ref)
		sv, err := sw.realize(sc, sr)
		if err != nil || werr != nil {
			t.Fatalf("under %v: %v (reference %v)", sc, err, werr)
		}
		if !sv.smw || sv.batchHit || sv.rank != len(ups) {
			t.Fatalf("under %v: served %+v; want a fresh rank-%d corrector", sc, sv, len(ups))
		}
		matchesDenseLoop(t, fmt.Sprintf("under %v", sc), sw, flatRealization(t, sw, sc, sr), want, false)
		if v, _ := sw.cors.m.Load(h); v != decoy {
			t.Fatalf("under %v: the colliding entry was replaced", sc)
		}
		return
	}
	t.Fatal("no designed scenario makes a row update")
}
