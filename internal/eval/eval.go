// Package eval reproduces the paper's evaluation (§5): it prepares
// instances the way the paper does (Topology Zoo graphs, gravity-model
// demands scaled to an optimal MLU in [0.6, 0.63], quasi-disjoint
// tunnels), runs every scheme, and emits the data series behind each
// figure and table. cmd/pcfeval prints them; bench_test.go wraps them
// in testing.B benchmarks.
package eval

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/mcf"
	"pcf/internal/telemetry"
	"pcf/internal/tol"
	"pcf/internal/topology"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// Options name everything Prepare builds a setup from: the source,
// the demand and tunnel sizes, and the failure model.
type Options struct {
	// Topology is a Table 3 name (see topozoo.Names). Ignored when
	// Synth or LinksFile is set (the synthetic name or the file path is
	// filled in for telemetry).
	Topology string
	// Synth, when non-empty, prepares a seeded synthetic topology
	// instead of a Table 3 graph: "waxman" or "ring-of-rings" (see
	// topozoo.Synth), sized by SynthNodes (default 1000). Synthetic
	// setups scale demand with a cheap tunnel-routing bound instead of
	// the exact MCF MLU scaling — at 1k+ nodes the exact scaling LP
	// would dwarf everything it feeds.
	Synth string
	// SynthNodes is the synthetic topology size (0 = 1000).
	SynthNodes int
	// LinksFile, when set, loads the topology from a links file in
	// cmd/topogen's format (-links) instead, and TMFile its traffic
	// matrix (-tm, which requires -links; empty generates a gravity
	// matrix). Both are taken as given: no node pruned, no rescaling.
	LinksFile, TMFile string
	// Seed selects the traffic matrix (the paper uses 12 per topology).
	Seed int64
	// MaxPairs caps the demand pairs to the top-K by gravity demand
	// (0 = all pairs). The paper solves all pairs with Gurobi; the
	// pure-Go solver needs this cap on the biggest topologies —
	// EXPERIMENTS.md records the caps used.
	MaxPairs int
	// TunnelsPerPair for the PCF schemes (paper: 3; 6 for sub-links).
	TunnelsPerPair int
	// FFCTunnels for FFC (paper: 2; 4 for sub-links).
	FFCTunnels int
	// FailureBudget is f, the number of simultaneous failures: at least
	// 1, as zero is refused, not read as unset (-f 0 once solved f=1).
	FailureBudget int
	// SubLinkSplit > 1 splits each link into that many sub-links that
	// fail independently (the paper's multi-failure setup uses 2).
	SubLinkSplit int
	// SRLGFile, when set, fails the shared-risk link groups in the file
	// together (-srlg; failures.ReadSRLGs format), and NodeFailures
	// fails nodes (-node-failures: comma-separated ids, or "transit" for
	// every node no demand ends at), instead of single links. At most
	// one of the two is set.
	SRLGFile, NodeFailures string
	// Objective is the metric (demand scale by default).
	Objective core.Objective
}

// The target range of the optimal no-failure MLU the demands are scaled
// into.
const (
	mluLow  = 0.6
	mluHigh = 0.63
)

// check rejects the option values that have no meaning rather than
// letting them reach the solver: a failure budget below 1 would
// prepare an instance with no scenarios at all, a negative pair cap
// would silently mean every pair, and a traffic file without its links
// file, or two failure models at once, would be ignored. The errors
// name the command-line flags that set the fields.
func (o Options) check() error {
	switch {
	case o.FailureBudget < 1:
		return fmt.Errorf("eval: the failure budget (-f) must be at least 1, got %d", o.FailureBudget)
	case o.MaxPairs < 0:
		return fmt.Errorf("eval: the pair cap (-pairs) must be nonnegative, got %d", o.MaxPairs)
	case o.TMFile != "" && o.LinksFile == "":
		return fmt.Errorf("eval: -tm requires -links")
	case o.SRLGFile != "" && o.NodeFailures != "":
		return fmt.Errorf("eval: -srlg and -node-failures are mutually exclusive")
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.TunnelsPerPair == 0 {
		o.TunnelsPerPair = 3
	}
	if o.FFCTunnels == 0 {
		o.FFCTunnels = 2
	}
	return o
}

// Setup is a prepared evaluation instance. Prepare returns it complete
// and nothing but the caller's Telemetry sink changes afterwards.
type Setup struct {
	Opts  Options
	Graph *topology.Graph
	TM    *traffic.Matrix
	// MLU is the no-failure MLU preparation computed; MLULabel says how.
	MLU      float64
	Pairs    []topology.Pair
	Tunnels  *tunnels.Set // TunnelsPerPair tunnels per pair
	Failures *failures.Set

	// Telemetry, when non-nil, receives one record per scheme run —
	// the same record schema the serving daemon emits, so offline
	// evaluation results land in the same stores and queries as
	// production solves. Nil discards.
	Telemetry telemetry.Emitter

	cls func() (*core.Instance, error) // CLSInstance, built on first call
}

// emit hands a record to the setup's sink. Records carry the topology
// as their name so multi-topology sweeps stay distinguishable.
func (s *Setup) emit(rec telemetry.Record) {
	if s.Telemetry == nil {
		return
	}
	rec.Source = "eval"
	rec.Name = s.Opts.Topology
	s.Telemetry.Emit(rec)
}

// Prepare is the one preparation every entry point shares. It loads
// the topology o names (a Table 3 or synthetic graph with its
// degree-one nodes pruned, or a links file as given), optionally splits
// sub-links, loads or generates the traffic matrix and keeps its top
// pairs, selects tunnels, scales generated demand to the paper's MLU
// range and builds the failure set of o's model. The CLS instance is
// left to the first CLSInstance call.
func Prepare(o Options) (*Setup, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	g, err := o.graph()
	if err != nil {
		return nil, err
	}
	switch {
	case o.LinksFile != "":
		o.Topology = o.LinksFile
	case o.Synth != "" && o.Topology == "":
		o.Topology = g.Name
	}
	if o.SubLinkSplit > 1 {
		g, err = g.SplitSubLinks(o.SubLinkSplit)
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", o.Topology, err)
		}
	}
	tm, err := o.matrix(g)
	if err != nil {
		return nil, err
	}
	pairs := tm.TopPairs(o.MaxPairs)
	tm = tm.Restrict(pairs)
	ts, err := tunnels.Select(g, pairs, tunnels.SelectOptions{PerPair: o.TunnelsPerPair})
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", o.Topology, err)
	}
	var mlu float64
	switch {
	case o.LinksFile != "":
		mlu = tunnelSplitMLU(g, tm, pairs, ts)
	case o.Synth != "":
		tm, mlu, err = scaleByTunnels(g, tm, pairs, ts, mluLow)
	default:
		tm, mlu, err = mcf.ScaleToMLU(g, tm, mluLow, mluHigh)
	}
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", o.Topology, err)
	}
	fs, err := o.failureSet(g, pairs)
	if err != nil {
		return nil, err
	}
	s := &Setup{Opts: o, Graph: g, TM: tm, MLU: mlu, Pairs: pairs, Tunnels: ts, Failures: fs}
	s.cls = sync.OnceValues(s.buildCLS)
	return s, nil
}

// MLULabel names how Prepare computed MLU: the exact multicommodity-flow
// optimum for a Table 3 graph; for a synthetic one, the target its
// demand was scaled to by splitting each pair evenly over its tunnels
// (the exact MCF would cost more than the instance it scales); for a
// links file, that even split of the matrix as given.
func (s *Setup) MLULabel() string {
	switch {
	case s.Opts.LinksFile != "":
		return "tunnel-split MLU of the given matrix"
	case s.Opts.Synth != "":
		return "tunnel-split MLU target"
	}
	return "optimal no-failure MLU (exact MCF)"
}

// scaleByTunnels scales demand so that routing each pair evenly over
// its selected tunnels yields MLU = target — the cheap deterministic
// stand-in for mcf.ScaleToMLU on synthetic setups, where the exact
// scaling MCF would cost more than the experiment it prepares.
func scaleByTunnels(g *topology.Graph, tm *traffic.Matrix, pairs []topology.Pair, ts *tunnels.Set, target float64) (*traffic.Matrix, float64, error) {
	mlu := tunnelSplitMLU(g, tm, pairs, ts)
	if mlu <= tol.Denominator {
		return nil, 0, fmt.Errorf("eval: synthetic demand produces no tunnel load")
	}
	return tm.Scale(target / mlu), target, nil
}

// tunnelSplitMLU is the MLU of routing each pair's demand evenly over
// its selected tunnels.
func tunnelSplitMLU(g *topology.Graph, tm *traffic.Matrix, pairs []topology.Pair, ts *tunnels.Set) float64 {
	load := make([]float64, g.NumArcs())
	for _, p := range pairs {
		ids := ts.ForPair(p)
		if len(ids) == 0 {
			continue
		}
		share := tm.At(p) / float64(len(ids))
		for _, id := range ids {
			for _, a := range ts.Tunnel(id).Path.Arcs {
				load[a] += share
			}
		}
	}
	mlu := 0.0
	for a, l := range load {
		if c := g.ArcCapacity(topology.ArcID(a)); c > 0 {
			if u := l / c; u > mlu {
				mlu = u
			}
		}
	}
	return mlu
}

// instance builds a core.Instance with k tunnels per pair.
func (s *Setup) instance(k int) *core.Instance {
	ts := s.Tunnels
	if k > 0 && k < s.Opts.TunnelsPerPair {
		ts = s.Tunnels.Restrict(k)
	}
	return &core.Instance{
		Graph:     s.Graph,
		TM:        s.TM,
		Tunnels:   ts,
		Failures:  s.Failures,
		Objective: s.Opts.Objective,
	}
}

// Result is one scheme's outcome on a setup.
type Result struct {
	Scheme string
	// Value is the metric (demand scale, or total throughput).
	Value float64
	// Time is the row's own offline solve, deriving its view of the
	// instance included. The setup's CLS instance is built once, by
	// whichever row asks first, and excluded, so no row is charged it.
	Time time.Duration
	// Extra carries scheme-specific notes (e.g. pruned LS fraction).
	Extra string
	// Stats summarizes the LP work behind the result: compile time,
	// simplex iterations, cutting-plane rounds and warm-start hits.
	// Empty when the scheme exposes no statistics.
	Stats string
	// Fields is the numeric form of Stats — the same metric vocabulary
	// telemetry records carry (see SolveStats.Metrics and friends).
	// Nil when the scheme exposes no statistics.
	Fields map[string]float64
	// Plan is the plan the scheme solved, the one Value describes; nil
	// for Optimal, which solves no plan.
	Plan *core.Plan
}

// StatsLine formats a plan's solve statistics for display.
func StatsLine(st core.SolveStats) string {
	if st.Rounds == 0 {
		return ""
	}
	line := fmt.Sprintf("compile %v, %d LP iters",
		st.CompileTime.Round(time.Microsecond), st.LPIterations)
	if st.Rounds > 1 {
		line += fmt.Sprintf(", %d rounds, %d cuts, warm %d/%d",
			st.Rounds, st.Cuts, st.WarmHits, st.Rounds)
	}
	if st.OracleCalls > 0 {
		line += fmt.Sprintf(", oracle %d/%d solved", st.OracleSolves, st.OracleCalls)
	}
	if st.PricingRounds > 0 {
		line += fmt.Sprintf(", %d LSs priced in over %d passes", st.ColumnsPriced, st.PricingRounds)
	}
	return line
}

// SweepStatsLine formats a scenario sweep's statistics for display.
func SweepStatsLine(st *mcf.SweepStats) string {
	if st == nil {
		return ""
	}
	return fmt.Sprintf("compile %v, %d LP iters, %d scenarios, warm %d (%.0f%% hit), %d workers",
		st.CompileTime.Round(time.Microsecond), st.LPIterations, st.Scenarios,
		st.WarmHits, 100*st.WarmHitRate(), st.Workers)
}

// Scheme names understood by Run. The first five are the rows of
// core's scheme table, which Run solves on CLSInstance as pcfd and
// pcfplan do; the rest are exhibits no daemon serves.
const (
	SchemeFFC           = core.SchemeFFC
	SchemePCFTF         = core.SchemePCFTF
	SchemePCFLS         = core.SchemePCFLS
	SchemePCFCLS        = core.SchemePCFCLS
	SchemeBest          = core.SchemeBest
	SchemePCFCLSTopSort = "PCF-CLS-TopSort"
	SchemeOptimal       = "Optimal"
)

// Run executes one scheme on the setup under ctx: the deadline and
// cancellation propagate into every LP solve and scenario enumeration,
// and the resulting error wraps the context error. Each run leaves one
// telemetry record behind when the setup has a sink: solve records for
// the plan schemes, an mcf record for the optimal sweep.
func (s *Setup) Run(ctx context.Context, scheme string) (Result, error) {
	if row, ok := core.LookupScheme(scheme); ok {
		scheme = row.Name // a table row is recorded by its own name, whatever the case asked
	}
	start := time.Now()
	res, err := s.runScheme(ctx, scheme)
	kind := telemetry.KindSolve
	if scheme == SchemeOptimal {
		kind = telemetry.KindMCF
	}
	rec := telemetry.Record{Kind: kind, Scheme: scheme, Dur: time.Since(start)}
	if err != nil {
		rec.Outcome = "error"
	} else {
		rec.Dur = res.Time
		rec.Fields = map[string]float64{"value": res.Value}
		for k, v := range res.Fields {
			rec.Fields[k] = v
		}
	}
	s.emit(rec)
	return res, err
}

// runScheme dispatches one scheme run; Run wraps it with telemetry.
func (s *Setup) runScheme(ctx context.Context, scheme string) (Result, error) {
	row, served := core.LookupScheme(scheme)
	var in *core.Instance
	var err error
	if served || scheme == SchemePCFCLSTopSort {
		if in, err = s.CLSInstance(); err != nil {
			return Result{}, err
		}
	}
	start := time.Now()
	solveOpts := core.SolveOptions{Context: ctx}
	var plan *core.Plan
	extra := ""
	switch {
	case served:
		plan, err = row.Solve(in, solveOpts)
	case scheme == SchemePCFCLSTopSort:
		in, extra = s.topSort(in)
		plan, err = core.SolvePCFCLS(in, solveOpts)
	case scheme == SchemeOptimal:
		if s.Opts.Objective == core.Throughput {
			return Result{}, fmt.Errorf("eval: the paper does not compute the optimal for the throughput metric (combinatorial blow-up)")
		}
		z, _, sw, err := mcf.OptimalUnderFailuresStats(ctx, s.Graph, s.TM, s.Failures)
		if err != nil {
			return Result{}, err
		}
		res := Result{Scheme: scheme, Value: z, Time: time.Since(start), Stats: SweepStatsLine(sw)}
		if sw != nil {
			res.Fields = sw.Metrics()
		}
		return res, nil
	default:
		return Result{}, fmt.Errorf("eval: unknown scheme %q", scheme)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{Scheme: scheme, Value: plan.Value, Time: time.Since(start), Extra: extra,
		Stats: StatsLine(plan.Stats), Fields: plan.Stats.Metrics(), Plan: plan}, nil
}

// CLSInstance is the PCF-CLS instance: core.BuildCLSQuick's
// shortest-path and bypass logical sequences, with every segment of an
// unconditional sequence given TunnelsPerPair tunnels, and FFC's
// budget of FFCTunnels tunnels per pair. It is the one instance every
// row of core's scheme table is solved on, here, in pcfplan and in
// pcfd; each row derives its view of it. The first call builds it and
// every later one returns the same instance, so callers must not
// modify it.
func (s *Setup) CLSInstance() (*core.Instance, error) { return s.cls() }

// buildCLS builds the instance CLSInstance returns.
func (s *Setup) buildCLS() (*core.Instance, error) {
	in, _, err := core.BuildCLSQuick(s.instance(0))
	if err != nil {
		return nil, err
	}
	if in.Tunnels, err = s.segmentTunnels(in.Tunnels, in.LSs); err != nil {
		return nil, err
	}
	in.FFCTunnels = s.Opts.FFCTunnels
	return in, nil
}

// topSort returns a copy of in keeping only the LSs core.TopSortFilter
// keeps (their segments are already covered), and a note of the pruned
// fraction. in, the setup's shared instance, is left as it is.
func (s *Setup) topSort(in *core.Instance) (*core.Instance, string) {
	out := *in
	var pruned int
	out.LSs, pruned = core.TopSortFilter(in.LSs, s.Opts.FailureBudget == 1)
	if total := len(in.LSs); total > 0 {
		return &out, fmt.Sprintf("pruned %d/%d LSs (%.2f%%)", pruned, total, 100*float64(pruned)/float64(total))
	}
	return &out, ""
}

// segmentTunnels returns ts extended so that every segment of an
// unconditional LS in lss has TunnelsPerPair tunnels: an always-active
// LS is only as strong as its weakest segment, so a single direct-link
// tunnel there wastes the LS under that link's failure. Conditional
// (bypass) LSs don't need this — their activation already encodes the
// failure they protect against. Paths ts already holds are not added
// twice.
func (s *Setup) segmentTunnels(ts *tunnels.Set, lss []core.LogicalSequence) (*tunnels.Set, error) {
	segSet := map[topology.Pair]bool{}
	for _, q := range lss {
		if q.Cond != nil {
			continue
		}
		for _, seg := range q.Segments() {
			if len(ts.ForPair(seg)) < s.Opts.TunnelsPerPair {
				segSet[seg] = true
			}
		}
	}
	if len(segSet) == 0 {
		return ts, nil
	}
	var segPairs []topology.Pair
	for p := range segSet {
		segPairs = append(segPairs, p)
	}
	sort.Slice(segPairs, func(i, j int) bool {
		if segPairs[i].Src != segPairs[j].Src {
			return segPairs[i].Src < segPairs[j].Src
		}
		return segPairs[i].Dst < segPairs[j].Dst
	})
	segTs, err := tunnels.Select(s.Graph, segPairs, tunnels.SelectOptions{PerPair: s.Opts.TunnelsPerPair})
	if err != nil {
		return nil, err
	}
	merged := tunnels.NewSet(s.Graph)
	seen := map[string]bool{}
	for _, set := range []*tunnels.Set{ts, segTs} {
		for _, p := range set.Pairs() {
			for _, id := range set.ForPair(p) {
				path := set.Tunnel(id).Path
				if k := fmt.Sprint(p, path.Arcs); !seen[k] {
					seen[k] = true
					merged.MustAdd(p, path)
				}
			}
		}
	}
	return merged, nil
}

// Ratio returns a/b guarding against tiny denominators.
func Ratio(a, b float64) float64 {
	if b <= tol.Denominator {
		return math.Inf(1)
	}
	return a / b
}
