// Package core implements the paper's traffic-engineering schemes:
// FFC (the prior state of the art), PCF-TF (better failure-structure
// modeling, §3.2), PCF-LS (logical sequences, §3.3), PCF-CLS
// (conditional logical sequences, §3.4), the logical-flow model with
// its LS-decomposition heuristic (§3.5), and the R3 link-bypass
// baseline. Every scheme computes bandwidth reservations that are
// provably congestion-free over a failure set, by solving a linear
// program whose robust (for-all-failures) constraints are either
// dualized (the paper's appendix) or generated lazily as cutting
// planes; both engines produce the same optimum.
package core

import (
	"fmt"
	"sort"
	"time"

	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// Objective selects the metric Θ(z) (paper §3.1).
type Objective int

const (
	// DemandScale maximizes the common fraction z of every demand that
	// is guaranteed under all failures (1/z is the worst-case MLU).
	DemandScale Objective = iota
	// Throughput maximizes Σ_st d_st·min(1, z_st), the total
	// guaranteed bandwidth.
	Throughput
)

func (o Objective) String() string {
	switch o {
	case DemandScale:
		return "demand-scale"
	case Throughput:
		return "throughput"
	}
	return "unknown"
}

// LSID identifies a logical sequence within an instance.
type LSID int

// Condition restricts when a conditional logical sequence is active:
// all AliveLinks must be alive and all DeadLinks dead (paper §3.4 and
// appendix). A nil *Condition means always active.
type Condition struct {
	AliveLinks []topology.LinkID
	DeadLinks  []topology.LinkID
}

// Links returns every link the condition references.
func (c *Condition) Links() []topology.LinkID {
	out := append([]topology.LinkID(nil), c.AliveLinks...)
	return append(out, c.DeadLinks...)
}

// Holds reports whether the condition is satisfied in a scenario.
func (c *Condition) Holds(sc failures.Scenario) bool {
	if c == nil {
		return true
	}
	for _, l := range c.AliveLinks {
		if sc.Dead[l] {
			return false
		}
	}
	for _, l := range c.DeadLinks {
		if !sc.Dead[l] {
			return false
		}
	}
	return true
}

// LinkDead is the common single-link condition used by PCF-CLS in the
// paper's evaluation: the LS activates exactly when link l is dead.
func LinkDead(l topology.LinkID) *Condition {
	return &Condition{DeadLinks: []topology.LinkID{l}}
}

// LinkAlive activates the LS only while link l is alive (the condition
// used in the paper's Fig. 5 example).
func LinkAlive(l topology.LinkID) *Condition {
	return &Condition{AliveLinks: []topology.LinkID{l}}
}

// LogicalSequence is the paper's LS abstraction (§3.3): traffic from
// Pair.Src to Pair.Dst traverses the intermediate Hops in order; each
// consecutive pair of hops is a logical segment whose traffic is in
// turn carried by that segment pair's tunnels and LSs.
type LogicalSequence struct {
	ID   LSID
	Pair topology.Pair
	// Hops are the intermediate logical hops v1..vm (at least one;
	// an LS with no intermediate hop would be the pair itself).
	Hops []topology.NodeID
	Cond *Condition
}

// Segments returns the logical segments (consecutive hop pairs).
func (q LogicalSequence) Segments() []topology.Pair {
	seq := make([]topology.NodeID, 0, len(q.Hops)+2)
	seq = append(seq, q.Pair.Src)
	seq = append(seq, q.Hops...)
	seq = append(seq, q.Pair.Dst)
	segs := make([]topology.Pair, 0, len(seq)-1)
	for i := 0; i+1 < len(seq); i++ {
		segs = append(segs, topology.Pair{Src: seq[i], Dst: seq[i+1]})
	}
	return segs
}

// Validate checks structural sanity of the LS.
func (q LogicalSequence) Validate() error {
	if len(q.Hops) == 0 {
		return fmt.Errorf("core: LS %d for %v has no intermediate hops", q.ID, q.Pair)
	}
	prev := q.Pair.Src
	for _, h := range q.Hops {
		if h == prev {
			return fmt.Errorf("core: LS %d repeats hop %d", q.ID, h)
		}
		prev = h
	}
	if prev == q.Pair.Dst {
		return fmt.Errorf("core: LS %d last hop equals destination", q.ID)
	}
	return nil
}

// Instance bundles everything a scheme needs: the network, the demand,
// the tunnels, optional logical sequences, the failure set to protect
// against, and the metric.
type Instance struct {
	Graph     *topology.Graph
	TM        *traffic.Matrix
	Tunnels   *tunnels.Set
	LSs       []LogicalSequence
	Failures  *failures.Set
	Objective Objective
	// FFCTunnels is FFC's tunnel budget: SolveFFC reserves on only the
	// first FFCTunnels tunnels of each pair (0 = every tunnel). The
	// other schemes use every tunnel.
	FFCTunnels int
}

// DemandPairs returns the pairs with positive demand.
func (in *Instance) DemandPairs() []topology.Pair { return in.TM.Pairs(0) }

// constraintPairs returns every pair that needs a resilience
// constraint: the listed demand pairs, pairs that are endpoints of an
// LS, and pairs that serve as a segment of some LS.
func (in *Instance) constraintPairs(demand []topology.Pair) []topology.Pair {
	seen := make(map[topology.Pair]bool)
	var out []topology.Pair
	add := func(p topology.Pair) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, p := range demand {
		add(p)
	}
	for _, q := range in.LSs {
		add(q.Pair)
		for _, s := range q.Segments() {
			add(s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// pairLSs are the LSs of one pair, each list in LS order: local those
// whose endpoints are exactly the pair (L(s,t)), through those having
// it as a segment (Q(s,t)).
type pairLSs struct {
	local, through []LSID
}

// lsIndex maps every pair with an LS to its LSs, in one pass over the
// LSs and their hops.
func (in *Instance) lsIndex() map[topology.Pair]pairLSs {
	if len(in.LSs) == 0 {
		return nil
	}
	idx := make(map[topology.Pair]pairLSs)
	for _, q := range in.LSs {
		e := idx[q.Pair]
		e.local = append(e.local, q.ID)
		idx[q.Pair] = e
		prev := q.Pair.Src
		for i := 0; i <= len(q.Hops); i++ {
			next := q.Pair.Dst
			if i < len(q.Hops) {
				next = q.Hops[i]
			}
			seg := topology.Pair{Src: prev, Dst: next}
			prev = next
			e := idx[seg]
			if n := len(e.through); n > 0 && e.through[n-1] == q.ID {
				continue // a segment the LS repeats counts once
			}
			e.through = append(e.through, q.ID)
			idx[seg] = e
		}
	}
	return idx
}

// Validate checks cross-component consistency.
func (in *Instance) Validate() error {
	_, _, err := in.validated()
	return err
}

// validated is Validate returning the demand and constraint pairs it
// listed, so that a solve lists each once: the matrix is read in one
// pass that both checks it and collects the demand pairs.
func (in *Instance) validated() (demand, constraint []topology.Pair, err error) {
	if in.Graph == nil || in.TM == nil || in.Tunnels == nil || in.Failures == nil {
		return nil, nil, fmt.Errorf("core: instance missing a component")
	}
	if in.TM.N() != in.Graph.NumNodes() {
		return nil, nil, fmt.Errorf("core: TM dimension %d != %d nodes", in.TM.N(), in.Graph.NumNodes())
	}
	if in.Failures.Budget < 0 {
		return nil, nil, fmt.Errorf("%w %d", ErrNegativeBudget, in.Failures.Budget)
	}
	if demand, err = in.TM.ValidPairs(); err != nil {
		return nil, nil, err
	}
	if len(demand) == 0 {
		return nil, nil, fmt.Errorf("core: instance has no demand (the objective would be unbounded)")
	}
	for i, q := range in.LSs {
		if q.ID != LSID(i) {
			return nil, nil, fmt.Errorf("core: LS %d has ID %d; IDs must be dense and ordered", i, q.ID)
		}
		if err := q.Validate(); err != nil {
			return nil, nil, err
		}
	}
	// Every constraint pair must have a tunnel or an LS: otherwise its
	// constraint is trivially infeasible for positive demand.
	lss := in.lsIndex()
	constraint = in.constraintPairs(demand)
	for _, p := range constraint {
		if len(in.Tunnels.ForPair(p)) == 0 && len(lss[p].local) == 0 {
			return nil, nil, fmt.Errorf("core: pair %v has neither tunnels nor LSs", p)
		}
	}
	return demand, constraint, nil
}

// Plan is the output of a scheme: reservations plus the achieved
// metric.
type Plan struct {
	Scheme    string
	Objective Objective
	// Value is the optimal metric value: the demand scale z, or the
	// total guaranteed throughput.
	Value float64
	// Z is the admitted fraction per demand pair.
	Z map[topology.Pair]float64
	// TunnelRes is the reservation a_l per tunnel.
	TunnelRes map[tunnels.ID]float64
	// LSRes is the reservation b_q per logical sequence.
	LSRes map[LSID]float64
	// SolveTime is the wall-clock LP time.
	SolveTime time.Duration
	// Instance the plan was computed for.
	Instance *Instance
	// Degraded lists the ladder rungs Scheme.Solve tried and abandoned
	// before this plan was produced (empty for a direct solve).
	Degraded []string
	// Stats summarizes the LP work behind the plan.
	Stats SolveStats
}

// SolveStats aggregates simplex statistics across the master solves
// that produced a plan.
type SolveStats struct {
	// Rounds is the number of cutting-plane rounds (1 for R3's
	// one-shot LP).
	Rounds int
	// Cuts is the number of cut rows in the final master.
	Cuts int
	// WarmHits counts the re-solves served by the warm-start path.
	WarmHits int
	// LPIterations totals simplex iterations across all rounds;
	// Phase1Iters, Phase2Iters and DualIters split it by simplex phase.
	LPIterations int
	Phase1Iters  int
	Phase2Iters  int
	DualIters    int
	// SlackStartRows totals, over the cold starts behind the plan, the
	// rows started on their own slack instead of an artificial. A cut
	// master starts every row there, so Phase1Iters stays 0.
	SlackStartRows int
	// PrepareTime is the master's build — model, adversaries, seed cuts
	// and compile — and CompileTime the compile within it. A solve on a
	// master an earlier solve built (Solver) reports both as zero, so a
	// slow re-plan's record says whether it rebuilt.
	PrepareTime time.Duration
	CompileTime time.Duration
	// Refactors totals basis refactorizations across all rounds.
	Refactors int
	// BasisNNZ and FactorNNZ are the final basis matrix and LU factor
	// nonzero counts.
	BasisNNZ  int
	FactorNNZ int
	// MaxEtaLen is the longest eta-update chain reached between
	// refactorizations.
	MaxEtaLen int
	// KernelDim is the largest kernel any refactorization handed to the
	// LU (lp.SolveStats.KernelDim) and Rows the row count of the final
	// master: a cut master's basis is mostly slack, so the first stays a
	// fraction of the second.
	KernelDim int
	Rows      int
	// OracleCalls counts the separation oracle's calls
	// (lp.Polytope.Minimize), one per pair per round, and OracleSolves
	// those a simplex solve answered; the rest repeated their
	// polytope's previous costs and got its saved answer.
	OracleCalls  int
	OracleSolves int
	// PricingRounds counts the pricing passes over a master no cut
	// separates, the last of which entered nothing, and ColumnsPriced
	// the pool columns (conditional LSs) they entered. A solve that
	// does not price reports both as zero.
	PricingRounds int
	ColumnsPriced int
}

// FillRatio is FactorNNZ/BasisNNZ — the factorization fill-in growth
// the adaptive refactorization trigger watches.
func (s SolveStats) FillRatio() float64 {
	if s.BasisNNZ == 0 {
		return 0
	}
	return float64(s.FactorNNZ) / float64(s.BasisNNZ)
}

// Metrics flattens the stats into the flat field schema of the
// telemetry record model (durations in milliseconds). The keys are the
// one vocabulary for LP solve statistics everywhere they surface.
func (s SolveStats) Metrics() map[string]float64 {
	return map[string]float64{
		"rounds":          float64(s.Rounds),
		"cuts":            float64(s.Cuts),
		"warm_hits":       float64(s.WarmHits),
		"lp_iterations":   float64(s.LPIterations),
		"phase1_iters":    float64(s.Phase1Iters),
		"phase2_iters":    float64(s.Phase2Iters),
		"dual_iters":      float64(s.DualIters),
		"slack_start":     float64(s.SlackStartRows),
		"prepare_ms":      float64(s.PrepareTime) / float64(time.Millisecond),
		"compile_time_ms": float64(s.CompileTime) / float64(time.Millisecond),
		"refactors":       float64(s.Refactors),
		"basis_nnz":       float64(s.BasisNNZ),
		"fill_ratio":      s.FillRatio(),
		"eta_len_max":     float64(s.MaxEtaLen),
		"kernel_dim":      float64(s.KernelDim),
		"rows":            float64(s.Rows),
		"oracle_calls":    float64(s.OracleCalls),
		"oracle_solves":   float64(s.OracleSolves),
		"pricing_rounds":  float64(s.PricingRounds),
		"columns_priced":  float64(s.ColumnsPriced),
	}
}

// ScaledDemand returns z_p * d_p for a pair under this plan.
func (p *Plan) ScaledDemand(pair topology.Pair) float64 {
	return p.Z[pair] * p.Instance.TM.At(pair)
}
