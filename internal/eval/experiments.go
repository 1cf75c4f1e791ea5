package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/mcf"
	"pcf/internal/routing"
	"pcf/internal/tol"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// Table is a printable experiment result: the rows behind one of the
// paper's figures or tables.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, c := range t.Columns {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, c)
	}
	fmt.Fprintln(tw)
	for _, r := range t.Rows {
		for i, c := range r {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Config parameterizes the evaluation sweeps. The zero value is not
// usable; start from DefaultConfig or BenchConfig.
type Config struct {
	// RefTopology drives the single-topology experiments (Figs 8-10).
	// The paper uses Deltacom (its largest); the pure-Go LP solver
	// makes a mid-size topology the practical default — EXPERIMENTS.md
	// discusses the substitution and how to run Deltacom itself.
	RefTopology string
	// Seeds is the number of traffic matrices (the paper uses 12).
	Seeds int
	// MaxPairs caps demand pairs per topology (0 = all).
	MaxPairs int
	// Topologies for the cross-topology sweeps (Figs 11-14).
	Topologies []string
	// OptimalMaxLinks computes the intrinsic capability only on
	// topologies with at most this many links (scenario enumeration
	// times MCF grows quickly; the paper saw >2-day solves).
	OptimalMaxLinks int
	// SRLGFile, when set, replaces every prepared setup's failure model
	// with the shared-risk groups in the file (Setup.ApplySRLGFile) for
	// the validation-facing experiments.
	SRLGFile string
	// NodeFailures, when set, replaces the failure model with node
	// units ("3,5,9" or "transit"; Setup.ApplyNodeFailures).
	NodeFailures string
}

// DefaultConfig is the laptop-scale configuration the checked-in
// EXPERIMENTS.md numbers use.
func DefaultConfig() Config {
	return Config{
		RefTopology:     "GEANT",
		Seeds:           12,
		MaxPairs:        60,
		Topologies:      topozoo.Names(),
		OptimalMaxLinks: 60,
	}
}

// BenchConfig is a small configuration for the testing.B benchmarks.
func BenchConfig() Config {
	return Config{
		RefTopology:     "Sprint",
		Seeds:           3,
		MaxPairs:        24,
		Topologies:      []string{"Sprint", "B4", "IBM", "Highwinds", "CWIX"},
		OptimalMaxLinks: 20,
	}
}

func (c Config) pairCap(links int) int {
	cap := c.MaxPairs
	if links > 100 && (cap == 0 || cap > 40) {
		cap = 40 // keep the largest instances tractable for the Go solver
	}
	return cap
}

// Fig2 reproduces the paper's Fig. 2: FFC's throughput guarantee on
// the Fig. 1 gadget for 3 vs 4 tunnels against the optimal, under 1
// and 2 simultaneous failures.
func Fig2() (*Table, error) {
	t := &Table{
		Title:   "Figure 2: throughput guarantee on Fig.1 gadget (FFC tunnel choices vs optimal)",
		Columns: []string{"failures f", "FFC-3", "FFC-4", "Optimal"},
	}
	gad := topozoo.Fig1()
	pair := topology.Pair{Src: gad.S, Dst: gad.T}
	for _, f := range []int{1, 2} {
		row := []string{fmt.Sprintf("%d", f)}
		for _, k := range []int{3, 4} {
			ts := tunnels.NewSet(gad.Graph)
			for i := 0; i < k; i++ {
				ts.MustAdd(pair, gad.Tunnels[i])
			}
			in := &core.Instance{
				Graph:     gad.Graph,
				TM:        traffic.Single(gad.Graph.NumNodes(), pair, 1),
				Tunnels:   ts,
				Failures:  failures.SingleLinks(gad.Graph, f),
				Objective: core.DemandScale,
			}
			plan, err := core.SolveFFC(in, core.SolveOptions{})
			if err != nil {
				return nil, err
			}
			row = append(row, f4(plan.Value))
		}
		tm := traffic.Single(gad.Graph.NumNodes(), pair, 1)
		opt, _, _, err := mcf.OptimalUnderFailuresStats(context.Background(), gad.Graph, tm, failures.SingleLinks(gad.Graph, f))
		if err != nil {
			return nil, err
		}
		row = append(row, f4(opt))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table1 reproduces the paper's Table 1 on the Fig. 5 gadget under two
// simultaneous link failures.
func Table1() (*Table, error) {
	t := &Table{
		Title:   "Table 1: guaranteed traffic on Fig.5 gadget under 2 simultaneous failures",
		Columns: []string{"Optimal", "FFC", "PCF-TF", "PCF-LS", "PCF-CLS", "R3"},
	}
	gad := topozoo.Fig5()
	g := gad.Graph
	s, tt, n4 := gad.S, gad.T, gad.Aux["4"]
	pair := topology.Pair{Src: s, Dst: tt}
	tm := traffic.Single(g.NumNodes(), pair, 1)
	fs := failures.SingleLinks(g, 2)
	path := func(nodes ...topology.NodeID) topology.Path {
		var arcs []topology.ArcID
		for i := 0; i+1 < len(nodes); i++ {
			for _, a := range g.OutArcs(nodes[i]) {
				if _, to := g.ArcEnds(a); to == nodes[i+1] {
					arcs = append(arcs, a)
					break
				}
			}
		}
		return topology.Path{Arcs: arcs}
	}
	baseTunnels := func() *tunnels.Set {
		ts := tunnels.NewSet(g)
		for _, p := range gad.Tunnels {
			ts.MustAdd(pair, p)
		}
		return ts
	}
	s4 := topology.Pair{Src: s, Dst: n4}
	p4t := topology.Pair{Src: n4, Dst: tt}

	opt, _, _, err := mcf.OptimalUnderFailuresStats(context.Background(), g, tm, fs)
	if err != nil {
		return nil, err
	}
	mkIn := func(ts *tunnels.Set, lss []core.LogicalSequence) *core.Instance {
		return &core.Instance{Graph: g, TM: tm, Tunnels: ts, LSs: lss, Failures: fs, Objective: core.DemandScale}
	}
	ffc, err := core.SolveFFC(mkIn(baseTunnels(), nil), core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	tf, err := core.SolvePCFTF(mkIn(baseTunnels(), nil), core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	// PCF-LS: LS (s,4,t) plus extra s->4 tunnels.
	lsTs := baseTunnels()
	lsTs.MustAdd(s4, path(s, n4))
	lsTs.MustAdd(s4, path(s, gad.Aux["1"], n4))
	lsTs.MustAdd(s4, path(s, gad.Aux["2"], n4))
	lsTs.MustAdd(s4, path(s, gad.Aux["3"], n4))
	lsTs.MustAdd(p4t, path(n4, gad.Aux["1"], gad.Aux["5"], tt))
	lsTs.MustAdd(p4t, path(n4, gad.Aux["2"], gad.Aux["6"], tt))
	lsTs.MustAdd(p4t, path(n4, gad.Aux["3"], gad.Aux["7"], tt))
	ls, err := core.SolvePCFLS(mkIn(lsTs, []core.LogicalSequence{
		{ID: 0, Pair: pair, Hops: []topology.NodeID{n4}},
	}), core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	// PCF-CLS: the same LS conditioned on link s-4 being alive.
	var s4link topology.LinkID = -1
	for _, l := range g.Links() {
		if (l.A == s && l.B == n4) || (l.A == n4 && l.B == s) {
			s4link = l.ID
		}
	}
	clsTs := baseTunnels()
	clsTs.MustAdd(s4, path(s, n4))
	clsTs.MustAdd(p4t, path(n4, gad.Aux["1"], gad.Aux["5"], tt))
	clsTs.MustAdd(p4t, path(n4, gad.Aux["2"], gad.Aux["6"], tt))
	clsTs.MustAdd(p4t, path(n4, gad.Aux["3"], gad.Aux["7"], tt))
	cls, err := core.SolvePCFCLS(mkIn(clsTs, []core.LogicalSequence{
		{ID: 0, Pair: pair, Hops: []topology.NodeID{n4}, Cond: core.LinkAlive(s4link)},
	}), core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	// R3 over link tunnels.
	linkTs := tunnels.NewSet(g)
	for _, l := range g.Links() {
		linkTs.MustAdd(topology.Pair{Src: l.A, Dst: l.B}, topology.Path{Arcs: []topology.ArcID{l.Forward()}})
		linkTs.MustAdd(topology.Pair{Src: l.B, Dst: l.A}, topology.Path{Arcs: []topology.ArcID{l.Reverse()}})
	}
	r3, err := core.SolveR3(mkIn(linkTs, nil), core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		f4(opt), f4(ffc.Value), f4(tf.Value), f4(ls.Value), f4(cls.Value), f4(r3.Value),
	})
	return t, nil
}

// Fig8 reproduces Fig. 8: CDF over traffic matrices of the demand
// scale guaranteed by FFC with 2, 3 and 4 tunnels, plus the optimal.
func Fig8(cfg Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 8: FFC demand scale vs tunnel count on %s (%d TMs, f=1)",
			cfg.RefTopology, cfg.Seeds),
		Note:    "more tunnels HURT FFC; each row is one traffic matrix",
		Columns: []string{"seed", "FFC(2)", "FFC(3)", "FFC(4)", "Optimal"},
	}
	for seed := 0; seed < cfg.Seeds; seed++ {
		setup, err := Prepare(Options{
			Topology: cfg.RefTopology, Seed: int64(seed + 1),
			MaxPairs: cfg.MaxPairs, TunnelsPerPair: 4, FailureBudget: 1,
		})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", seed+1)}
		for _, k := range []int{2, 3, 4} {
			in := setup.instance(k)
			plan, err := core.SolveFFC(in, core.SolveOptions{})
			if err != nil {
				return nil, err
			}
			row = append(row, f4(plan.Value))
		}
		if setup.Graph.NumLinks() <= cfg.OptimalMaxLinks {
			opt, _, _, err := mcf.OptimalUnderFailuresStats(context.Background(), setup.Graph, setup.TM, setup.Failures)
			if err != nil {
				return nil, err
			}
			row = append(row, f4(opt))
		} else {
			row = append(row, "-")
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig9 reproduces Fig. 9: FFC vs PCF-TF as tunnels are added (one TM).
func Fig9(cfg Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 9: demand scale vs tunnel count, FFC vs PCF-TF on %s (f=1)",
			cfg.RefTopology),
		Note:    "PCF-TF only improves with more tunnels (Proposition 2); FFC degrades",
		Columns: []string{"tunnels", "FFC", "PCF-TF"},
	}
	setup, err := Prepare(Options{
		Topology: cfg.RefTopology, Seed: 1,
		MaxPairs: cfg.MaxPairs, TunnelsPerPair: 4, FailureBudget: 1,
	})
	if err != nil {
		return nil, err
	}
	for _, k := range []int{2, 3, 4} {
		in := setup.instance(k)
		ffc, err := core.SolveFFC(in, core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		tf, err := core.SolvePCFTF(in, core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", k), f4(ffc.Value), f4(tf.Value)})
	}
	return t, nil
}

// schemesVsFFC runs the PCF schemes on one setup and returns demand
// scale ratios relative to FFC (and the optimal when affordable).
func schemesVsFFC(cfg Config, setup *Setup) (map[string]float64, error) {
	out := map[string]float64{}
	ffc, err := setup.Run(context.Background(), SchemeFFC)
	if err != nil {
		return nil, err
	}
	out[SchemeFFC] = ffc.Value
	for _, sch := range []string{SchemePCFTF, SchemePCFLS, SchemePCFCLS} {
		r, err := setup.Run(context.Background(), sch)
		if err != nil {
			return nil, err
		}
		out[sch] = r.Value
	}
	if setup.Graph.NumLinks() <= cfg.OptimalMaxLinks && setup.Opts.FailureBudget == 1 {
		r, err := setup.Run(context.Background(), SchemeOptimal)
		if err != nil {
			return nil, err
		}
		out[SchemeOptimal] = r.Value
	}
	return out, nil
}

func ratioRow(label string, vals map[string]float64) []string {
	ffc := vals[SchemeFFC]
	row := []string{label, f4(ffc)}
	for _, sch := range []string{SchemePCFTF, SchemePCFLS, SchemePCFCLS, SchemeOptimal} {
		v, ok := vals[sch]
		if !ok {
			row = append(row, "-")
			continue
		}
		row = append(row, fmt.Sprintf("%s (%sx)", f4(v), f2(Ratio(v, ffc))))
	}
	return row
}

var ratioColumns = []string{"instance", "FFC", "PCF-TF", "PCF-LS", "PCF-CLS", "Optimal"}

// Fig10 reproduces Fig. 10: the distribution over traffic matrices of
// each scheme's demand scale relative to FFC on the reference topology.
func Fig10(cfg Config) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 10: demand scale relative to FFC across %d TMs on %s (f=1)",
			cfg.Seeds, cfg.RefTopology),
		Columns: ratioColumns,
	}
	for seed := 0; seed < cfg.Seeds; seed++ {
		setup, err := Prepare(Options{
			Topology: cfg.RefTopology, Seed: int64(seed + 1),
			MaxPairs: cfg.MaxPairs, FailureBudget: 1,
		})
		if err != nil {
			return nil, err
		}
		vals, err := schemesVsFFC(cfg, setup)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, ratioRow(fmt.Sprintf("TM %d", seed+1), vals))
	}
	return t, nil
}

// Fig11 reproduces Fig. 11: each scheme's demand scale relative to FFC
// across the evaluation topologies under single link failures.
func Fig11(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Figure 11: demand scale relative to FFC across topologies (f=1)",
		Columns: ratioColumns,
	}
	for _, name := range cfg.Topologies {
		entry, err := topozoo.Load(name)
		if err != nil {
			return nil, err
		}
		setup, err := Prepare(Options{
			Topology: name, Seed: 1,
			MaxPairs: cfg.pairCap(entry.NumLinks()), FailureBudget: 1,
		})
		if err != nil {
			return nil, err
		}
		vals, err := schemesVsFFC(cfg, setup)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, ratioRow(name, vals))
	}
	return t, nil
}

// Fig12 reproduces Fig. 12: the same comparison under three
// simultaneous sub-link failures (each link split into two sub-links;
// PCF schemes use 6 tunnels, FFC 4).
func Fig12(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Figure 12: demand scale relative to FFC under 3 simultaneous sub-link failures",
		Note:    "links split into 2 sub-links; PCF: 6 tunnels, FFC: 4",
		Columns: ratioColumns,
	}
	for _, name := range cfg.Topologies {
		setup, err := Prepare(Options{
			Topology: name, Seed: 1,
			MaxPairs: cfg.pairCap(0), FailureBudget: 3, SubLinkSplit: 2,
			TunnelsPerPair: 6, FFCTunnels: 4,
		})
		if err != nil {
			return nil, err
		}
		// Optimal under 3 failures needs C(2E,3) MCF solves; skipped
		// (the paper's own optimal runs took up to two days).
		cfgNoOpt := cfg
		cfgNoOpt.OptimalMaxLinks = 0
		vals, err := schemesVsFFC(cfgNoOpt, setup)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, ratioRow(name, vals))
	}
	return t, nil
}

// Fig13 reproduces Fig. 13: reduction in throughput overhead relative
// to FFC under three sub-link failures, with Θ = total throughput.
func Fig13(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Figure 13: reduction in throughput overhead vs FFC (3 sub-link failures)",
		Note:    "overhead = 1 - Σbw/Σd; reduction = (FFC_overhead - scheme_overhead) / FFC_overhead",
		Columns: []string{"topology", "FFC overhead", "PCF-TF", "PCF-LS", "PCF-CLS"},
	}
	for _, name := range cfg.Topologies {
		setup, err := Prepare(Options{
			Topology: name, Seed: 1,
			MaxPairs: cfg.pairCap(0), FailureBudget: 3, SubLinkSplit: 2,
			TunnelsPerPair: 6, FFCTunnels: 4,
			Objective: core.Throughput,
		})
		if err != nil {
			return nil, err
		}
		total := setup.TM.Total()
		overhead := func(thr float64) float64 { return 1 - thr/total }
		ffc, err := setup.Run(context.Background(), SchemeFFC)
		if err != nil {
			return nil, err
		}
		ffcOv := overhead(ffc.Value)
		row := []string{name, f4(ffcOv)}
		for _, sch := range []string{SchemePCFTF, SchemePCFLS, SchemePCFCLS} {
			r, err := setup.Run(context.Background(), sch)
			if err != nil {
				return nil, err
			}
			red := 0.0
			if ffcOv > tol.Report {
				red = 100 * (ffcOv - overhead(r.Value)) / ffcOv
			}
			row = append(row, fmt.Sprintf("%.1f%%", red))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig14 reproduces Fig. 14: offline solving time versus topology size
// (sub-links), for PCF-TF, PCF-CLS and (where affordable) the optimal.
func Fig14(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Figure 14: solving time vs number of sub-links (f=3, 2 sub-links per link)",
		Columns: []string{"topology", "sub-links", "PCF-TF", "PCF-CLS", "Optimal (f=1 scenarios)", "PCF-CLS LP stats"},
	}
	entries := topozoo.SortedEntries()
	want := map[string]bool{}
	for _, n := range cfg.Topologies {
		want[n] = true
	}
	for _, e := range entries {
		if !want[e.Name] {
			continue
		}
		setup, err := Prepare(Options{
			Topology: e.Name, Seed: 1,
			MaxPairs: cfg.pairCap(0), FailureBudget: 3, SubLinkSplit: 2,
			TunnelsPerPair: 6,
		})
		if err != nil {
			return nil, err
		}
		row := []string{e.Name, fmt.Sprintf("%d", setup.Graph.NumLinks())}
		tf, err := setup.Run(context.Background(), SchemePCFTF)
		if err != nil {
			return nil, err
		}
		row = append(row, tf.Time.Round(time.Millisecond).String())
		cls, err := setup.Run(context.Background(), SchemePCFCLS)
		if err != nil {
			return nil, err
		}
		row = append(row, cls.Time.Round(time.Millisecond).String())
		if e.Edges <= cfg.OptimalMaxLinks/2 {
			// The optimal column uses single-failure enumeration (the
			// 3-failure scenario count is combinatorial).
			s1, err := Prepare(Options{Topology: e.Name, Seed: 1, MaxPairs: cfg.pairCap(0), FailureBudget: 1})
			if err != nil {
				return nil, err
			}
			opt, err := s1.Run(context.Background(), SchemeOptimal)
			if err != nil {
				return nil, err
			}
			row = append(row, opt.Time.Round(time.Millisecond).String())
		} else {
			row = append(row, "-")
		}
		row = append(row, cls.Stats)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Sec52 reproduces §5.2: PCF-CLS-TopSort — how many LSs the greedy
// topological-sort filter prunes and the resulting demand scale.
func Sec52(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Section 5.2: PCF-CLS vs PCF-CLS-TopSort (local proportional routing feasibility, f=1)",
		Columns: []string{"topology", "PCF-CLS", "PCF-CLS-TopSort", "pruned LSs", "FFC"},
	}
	for _, name := range cfg.Topologies {
		entry, err := topozoo.Load(name)
		if err != nil {
			return nil, err
		}
		setup, err := Prepare(Options{
			Topology: name, Seed: 1,
			MaxPairs: cfg.pairCap(entry.NumLinks()), FailureBudget: 1,
		})
		if err != nil {
			return nil, err
		}
		cls, err := setup.Run(context.Background(), SchemePCFCLS)
		if err != nil {
			return nil, err
		}
		tsr, err := setup.Run(context.Background(), SchemePCFCLSTopSort)
		if err != nil {
			return nil, err
		}
		ffc, err := setup.Run(context.Background(), SchemeFFC)
		if err != nil {
			return nil, err
		}
		pruned := tsr.Extra
		if pruned == "" {
			pruned = "0 (already sorted)"
		}
		t.Rows = append(t.Rows, []string{name, f4(cls.Value), f4(tsr.Value), pruned, f4(ffc.Value)})
	}
	return t, nil
}

// SummarizeRatios extracts the scheme/FFC ratios from a ratio table
// (Fig 10/11/12 format) and reports min/median/mean/max per scheme —
// the aggregate numbers the paper quotes (1.11x-1.5x mean, 2.6x max).
func SummarizeRatios(t *Table) *Table {
	idx := map[string]int{"PCF-TF": 2, "PCF-LS": 3, "PCF-CLS": 4}
	out := &Table{
		Title:   t.Title + " — summary of ratios vs FFC",
		Columns: []string{"scheme", "min", "median", "mean", "max"},
	}
	for _, sch := range []string{"PCF-TF", "PCF-LS", "PCF-CLS"} {
		var ratios []float64
		for _, row := range t.Rows {
			cell := row[idx[sch]]
			var v, r float64
			if _, err := fmt.Sscanf(cell, "%f (%fx)", &v, &r); err == nil && !math.IsInf(r, 0) {
				ratios = append(ratios, r)
			}
		}
		if len(ratios) == 0 {
			continue
		}
		sort.Float64s(ratios)
		mean := 0.0
		for _, r := range ratios {
			mean += r
		}
		mean /= float64(len(ratios))
		out.Rows = append(out.Rows, []string{
			sch, f2(ratios[0]), f2(ratios[len(ratios)/2]), f2(mean), f2(ratios[len(ratios)-1]),
		})
	}
	return out
}

// NodeFailures is an extension experiment the paper motivates but does
// not evaluate (§3.5): guarantees under single *router* failures,
// which PCF's failure-unit model handles and R3 cannot express.
// Traffic endpoints are excluded from the failure set (no scheme can
// serve a demand whose endpoint is down).
func NodeFailures(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Extension: demand scale under any single transit-router failure",
		Note:    "R3 cannot model node failures at all (paper §3.5)",
		Columns: []string{"topology", "FFC", "PCF-TF", "PCF-CLS"},
	}
	for _, name := range cfg.Topologies {
		// FFC keeps the PCF schemes' three tunnels per pair here.
		setup, err := Prepare(Options{
			Topology: name, Seed: 1, MaxPairs: cfg.pairCap(0), FailureBudget: 1, FFCTunnels: 3,
		})
		if err != nil {
			return nil, err
		}
		// The one error "transit" returns: every node is a demand
		// endpoint, so there is no transit router to fail.
		if err := setup.ApplyNodeFailures("transit"); err != nil {
			t.Rows = append(t.Rows, []string{name, "-", "-", "-"})
			continue
		}
		row := []string{name}
		for _, sch := range []string{SchemeFFC, SchemePCFTF, SchemePCFCLS} {
			r, err := setup.Run(context.Background(), sch)
			if err != nil {
				return nil, err
			}
			row = append(row, f4(r.Value))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ValidationSweep is the engineering-side experiment behind the
// realization rework: for each topology it solves PCF-TF, then drives
// the full scenario validation sweep through the shared-factorization
// engine and reports the worst-case MLU next to the sweep statistics
// (base-factor time, SMW hit rate, fallbacks). It doubles as an
// end-to-end check that every realized scenario satisfies the
// Proposition 5 bounds: WorstMLU re-realizes each scenario from the
// same low-rank engine Validate uses.
func ValidationSweep(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Validation sweep: worst-case MLU via shared-factorization realization",
		Note:    "SMW = scenarios served by the low-rank Sherman-Morrison-Woodbury path",
		Columns: []string{"topology", "scale", "worst MLU", "scenarios", "SMW hit", "fallbacks", "max rank", "factor", "sweep"},
	}
	for _, name := range cfg.Topologies {
		setup, err := Prepare(Options{
			Topology: name, Seed: 1, MaxPairs: cfg.pairCap(0), FailureBudget: 1,
		})
		if err != nil {
			return nil, err
		}
		if err := setup.ApplyFailureModel(cfg.SRLGFile, cfg.NodeFailures); err != nil {
			return nil, err
		}
		plan, err := core.SolvePCFTF(setup.instance(0), core.SolveOptions{})
		if err != nil {
			return nil, err
		}
		mlu, _, st, err := routing.WorstMLUStats(context.Background(), plan, routing.ValidateOptions{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name, f4(plan.Value), f4(mlu),
			fmt.Sprintf("%d", st.Scenarios),
			fmt.Sprintf("%.0f%%", 100*st.SMWHitRate()),
			fmt.Sprintf("%d", st.Fallbacks),
			fmt.Sprintf("%d", st.MaxRank),
			st.BaseFactorTime.Round(time.Microsecond).String(),
			st.Total.Round(time.Millisecond).String(),
		})
	}
	return t, nil
}

// DegradedVsBinary is the partial-capacity extension experiment
// (DESIGN.md §18): on the reference topology it solves PCF-TF twice
// per failure budget — once against the classical binary-death model,
// once with every unit degrading its link to α of nominal capacity
// instead of killing it — and reports the guaranteed demand scale and
// the enumerated worst-case MLU of each, plus the adversarial search's
// worst MLU on the degraded set as a cross-check (it must match the
// enumeration to 1e-9 wherever enumeration is feasible).
func DegradedVsBinary(cfg Config) (*Table, error) {
	const alpha = 0.5
	t := &Table{
		Title: fmt.Sprintf("Degraded capacity vs binary death (%s, α=%.1f)", cfg.RefTopology, alpha),
		Note:  "binary kills each failed unit's links; degraded halves their capacity instead",
		Columns: []string{"f", "binary scale", "binary MLU",
			"degraded scale", "degraded MLU", "search MLU", "search evals"},
	}
	for _, f := range []int{1, 2} {
		setup, err := Prepare(Options{
			Topology: cfg.RefTopology, Seed: 1, MaxPairs: cfg.pairCap(0),
			FailureBudget: f,
		})
		if err != nil {
			return nil, err
		}
		if err := setup.ApplyFailureModel(cfg.SRLGFile, cfg.NodeFailures); err != nil {
			return nil, err
		}
		binary := setup.Failures
		degraded := binary.Degrade(alpha)

		solve := func(fs *failures.Set) (*core.Plan, float64, error) {
			in := &core.Instance{
				Graph: setup.Graph, TM: setup.TM, Tunnels: setup.Tunnels,
				Failures: fs, Objective: core.DemandScale,
			}
			plan, err := core.SolvePCFTF(in, core.SolveOptions{})
			if err != nil {
				return nil, 0, err
			}
			mlu, _, _, err := routing.WorstMLUStats(context.Background(), plan, routing.ValidateOptions{})
			return plan, mlu, err
		}
		binPlan, binMLU, err := solve(binary)
		if err != nil {
			return nil, err
		}
		degPlan, degMLU, err := solve(degraded)
		if err != nil {
			return nil, err
		}
		res, err := routing.WorstMLUSearch(context.Background(), degPlan, core.SearchOptions{Seed: 1})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", f),
			f4(binPlan.Value), f4(binMLU),
			f4(degPlan.Value), f4(degMLU),
			f4(res.Value), fmt.Sprintf("%d", res.Evals),
		})
	}
	return t, nil
}
