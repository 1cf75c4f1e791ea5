package eval

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pcf/internal/core"
	"pcf/internal/failures"
)

func TestPrepareSprint(t *testing.T) {
	s, err := Prepare(Options{Topology: "Sprint", Seed: 1, MaxPairs: 10, FailureBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.MLU < 0.6-1e-9 || s.MLU > 0.63+1e-9 {
		t.Fatalf("MLU %g outside the paper's [0.6, 0.63] target", s.MLU)
	}
	if len(s.Pairs) != 10 {
		t.Fatalf("pairs = %d", len(s.Pairs))
	}
	for _, p := range s.Pairs {
		if len(s.Tunnels.ForPair(p)) == 0 {
			t.Fatalf("pair %v has no tunnels", p)
		}
	}
}

func TestPrepareUnknownTopology(t *testing.T) {
	if _, err := Prepare(Options{Topology: "Nope", FailureBudget: 1}); err == nil {
		t.Fatal("expected error")
	}
}

// TestFailureModelOptions: the -srlg / -node-failures options the CLIs
// share refuse both at once, naming both flags; neither keeps single
// links; "transit" replaces them with node units.
func TestFailureModelOptions(t *testing.T) {
	o := Options{Topology: "Sprint", Seed: 1, MaxPairs: 5, FailureBudget: 1}
	for _, tc := range []struct {
		name        string
		srlg, nodes string
		singleLinks bool
	}{
		{"both", "groups.txt", "transit", false},
		{"neither", "", "", true},
		{"transit", "", "transit", false},
	} {
		o.SRLGFile, o.NodeFailures = tc.srlg, tc.nodes
		s, err := Prepare(o)
		if tc.name == "both" {
			if err == nil || !strings.Contains(err.Error(), "-srlg") || !strings.Contains(err.Error(), "-node-failures") {
				t.Errorf("both set: err %v, want one naming -srlg and -node-failures", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := reflect.DeepEqual(s.Failures, failures.SingleLinks(s.Graph, 1)); got != tc.singleLinks {
			t.Errorf("%s: single-link failure set %v, want %v", tc.name, got, tc.singleLinks)
		}
	}
}

func TestRunUnknownScheme(t *testing.T) {
	s, err := Prepare(Options{Topology: "Sprint", Seed: 1, MaxPairs: 5, FailureBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), "nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunOptimalRejectsThroughput(t *testing.T) {
	s, err := Prepare(Options{Topology: "Sprint", Seed: 1, MaxPairs: 5, FailureBudget: 1, Objective: core.Throughput})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), SchemeOptimal); err == nil {
		t.Fatal("optimal under throughput should be rejected (as in the paper)")
	}
}

func TestSchemeOrderingOnSprint(t *testing.T) {
	s, err := Prepare(Options{Topology: "Sprint", Seed: 2, MaxPairs: 12, FailureBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, sch := range []string{SchemeFFC, SchemePCFTF, SchemeOptimal} {
		r, err := s.Run(context.Background(), sch)
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		vals[sch] = r.Value
	}
	if vals[SchemeFFC] > vals[SchemePCFTF]+1e-6 {
		t.Fatalf("FFC %g > PCF-TF %g", vals[SchemeFFC], vals[SchemePCFTF])
	}
	if vals[SchemePCFTF] > vals[SchemeOptimal]+1e-6 {
		t.Fatalf("PCF-TF %g > optimal %g", vals[SchemePCFTF], vals[SchemeOptimal])
	}
}

func TestFig2Table(t *testing.T) {
	tab, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Exact paper values.
	want := [][]string{
		{"1", "1.5000", "1.0000", "2.0000"},
		{"2", "0.5000", "0.0000", "1.0000"},
	}
	for i := range want {
		for j := range want[i] {
			if tab.Rows[i][j] != want[i][j] {
				t.Fatalf("cell %d,%d = %q, want %q", i, j, tab.Rows[i][j], want[i][j])
			}
		}
	}
}

func TestTable1Table(t *testing.T) {
	tab, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1.0000", "0.0000", "0.6667", "0.8000", "1.0000", "0.0000"}
	for j, w := range want {
		if tab.Rows[0][j] != w {
			t.Fatalf("Table1 col %d = %q, want %q", j, tab.Rows[0][j], w)
		}
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Note:    "note",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "note", "a", "1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRatioAndCDF(t *testing.T) {
	//lint:ignore pcflint/floatcmp exact integer arithmetic: 2/1 is exactly 2
	if Ratio(2, 1) != 2 {
		t.Fatal("ratio wrong")
	}
	if !math.IsInf(Ratio(1, 0), 1) {
		t.Fatal("ratio by zero should be +inf")
	}
}

func TestSummarizeRatios(t *testing.T) {
	tab := &Table{
		Columns: ratioColumns,
		Rows: [][]string{
			{"x", "1.0000", "1.2000 (1.20x)", "1.3000 (1.30x)", "1.5000 (1.50x)", "-"},
			{"y", "1.0000", "1.4000 (1.40x)", "1.3000 (1.30x)", "2.5000 (2.50x)", "-"},
		},
	}
	sum := SummarizeRatios(tab)
	if len(sum.Rows) != 3 {
		t.Fatalf("summary rows = %d", len(sum.Rows))
	}
	// PCF-TF mean = 1.30.
	if sum.Rows[0][3] != "1.30" {
		t.Fatalf("PCF-TF mean = %q", sum.Rows[0][3])
	}
	// PCF-CLS max = 2.50.
	if sum.Rows[2][4] != "2.50" {
		t.Fatalf("PCF-CLS max = %q", sum.Rows[2][4])
	}
}

func TestBenchConfigSane(t *testing.T) {
	cfg := BenchConfig()
	if cfg.Seeds <= 0 || len(cfg.Topologies) == 0 || cfg.RefTopology == "" {
		t.Fatal("bench config incomplete")
	}
	d := DefaultConfig()
	if d.Seeds != 12 {
		t.Fatalf("default seeds = %d, want the paper's 12", d.Seeds)
	}
	if len(d.Topologies) != 21 {
		t.Fatalf("default topologies = %d, want 21", len(d.Topologies))
	}
}

func TestPairCap(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.pairCap(151); got != 40 {
		t.Fatalf("cap for Deltacom-size = %d, want 40", got)
	}
	if got := cfg.pairCap(50); got != cfg.MaxPairs {
		t.Fatalf("cap for mid-size = %d, want %d", got, cfg.MaxPairs)
	}
}

func TestSubLinkPreparation(t *testing.T) {
	s, err := Prepare(Options{Topology: "Sprint", Seed: 1, MaxPairs: 8, SubLinkSplit: 2, FailureBudget: 3, TunnelsPerPair: 6})
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph.NumLinks() != 34 {
		t.Fatalf("sub-links = %d, want 34", s.Graph.NumLinks())
	}
	if s.Failures.Budget != 3 {
		t.Fatal("budget not propagated")
	}
	r, err := s.Run(context.Background(), SchemeFFC)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value < 0 {
		t.Fatal("negative value")
	}
}

// TestValidationSweepTable runs the validation-sweep experiment on one
// small topology and checks the sweep statistics line up: every
// scenario is accounted for, the worst MLU respects the plan's
// guarantee, and the formatter renders the stats.
func TestValidationSweepTable(t *testing.T) {
	cfg := BenchConfig()
	cfg.Topologies = []string{"B4"}
	tab, err := ValidationSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "B4" {
		t.Fatalf("rows = %v", tab.Rows)
	}
	row := tab.Rows[0]
	if row[3] == "0" {
		t.Fatalf("no scenarios swept: %v", row)
	}
	// The realized worst-case MLU must respect the plan's guarantee
	// (Proposition 5: congestion-free at the solved demand scale).
	var scale, mlu float64
	if _, err := fmt.Sscanf(row[1], "%f", &scale); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(row[2], "%f", &mlu); err != nil {
		t.Fatal(err)
	}
	if mlu > 1+1e-6 {
		t.Fatalf("worst MLU %g exceeds 1 despite scale %g", mlu, scale)
	}
}

// TestBestAnswersOnCLSRung: SchemeBest runs the ladder on CLSInstance,
// so where its top rung holds it answers PCF-CLS at the value
// SchemePCFCLS reports, bit for bit. On these three topologies the
// ladder once ran on core.BuildCLSQuick's bare instance instead and
// answered lower (Xeex 0.1913 against 0.4605).
func TestBestAnswersOnCLSRung(t *testing.T) {
	for _, name := range []string{"Xeex", "Integra", "BTNorthAmerica"} {
		s, err := Prepare(Options{Topology: name, Seed: 1, MaxPairs: 20, FailureBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		best, err := s.Run(context.Background(), SchemeBest)
		if err != nil {
			t.Fatalf("%s best: %v", name, err)
		}
		cls, err := s.Run(context.Background(), SchemePCFCLS)
		if err != nil {
			t.Fatalf("%s PCF-CLS: %v", name, err)
		}
		if best.Plan.Scheme != SchemePCFCLS || math.Float64bits(best.Value) != math.Float64bits(cls.Value) {
			t.Errorf("%s: best answered %s %.4f, PCF-CLS %.4f", name, best.Plan.Scheme, best.Value, cls.Value)
		}
	}
}
