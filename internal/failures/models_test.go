package failures

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pcf/internal/topology"
)

// feq is the tolerance helper the floatcmp analyzer recognizes.
func feq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// --- satellite: binomial/NumScenariosExact saturation ---

func TestBinomialExactSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{4, 0, 1}, {4, 2, 6}, {10, 3, 120}, {52, 5, 2598960},
		{0, 0, 1}, {3, 5, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		got, ok := binomial(c.n, c.k)
		if !ok || got != c.want {
			t.Fatalf("binomial(%d,%d) = %d,%v want %d", c.n, c.k, got, ok, c.want)
		}
	}
}

func TestBinomialSaturates(t *testing.T) {
	// C(10000,5) ≈ 8.3e16 fits, but the running product c·(n−i)
	// overflows int64 on the last step of the old code; the saturating
	// version must stay exact here.
	got, ok := binomial(10000, 5)
	if !ok {
		t.Fatal("C(10000,5) fits in int64 and must be exact")
	}
	// Sanity against the float approximation.
	approx := 1.0
	for i := 0; i < 5; i++ {
		approx = approx * float64(10000-i) / float64(i+1)
	}
	if math.Abs(float64(got)-approx)/approx > 1e-9 {
		t.Fatalf("C(10000,5) = %d, float says %g", got, approx)
	}
	// C(1e6, 5) ≈ 8.3e27 > MaxInt64: must saturate, not wrap negative.
	sat, ok := binomial(1000000, 5)
	if ok || sat != math.MaxInt64 {
		t.Fatalf("C(1e6,5) = %d,%v want saturated MaxInt64", sat, ok)
	}
}

func TestNumScenariosSaturates(t *testing.T) {
	units := make([]Unit, 1000000)
	fs := &Set{Units: units, Budget: 5}
	n, exact := fs.NumScenarios()
	if exact || n != math.MaxInt64 {
		t.Fatalf("NumScenarios = %d,%v want saturated", n, exact)
	}
	if got := fs.NumScenariosExact(); got != math.MaxInt64 {
		t.Fatalf("NumScenariosExact = %d, want MaxInt64 (never negative)", got)
	}
	// A synth-scale but representable count stays exact.
	fs = &Set{Units: make([]Unit, 10000), Budget: 3}
	n, exact = fs.NumScenarios()
	want := int64(1) + 10000 + 10000*9999/2 + 10000*9999*9998/6
	if !exact || n != want {
		t.Fatalf("NumScenarios(10000,3) = %d,%v want %d exact", n, exact, want)
	}
}

// --- satellite: Disconnects/Nodes/SRLGs edge cases ---

func TestSRLGsOverlappingGroups(t *testing.T) {
	g := square()
	// Two groups share link 1; unit membership must reflect both.
	fs := SRLGSet(g, []SRLGSpec{{Links: []topology.LinkID{0, 1}}, {Links: []topology.LinkID{1, 2}}}, 2)
	// 2 groups + 1 uncovered singleton (link 3) = 3 units.
	if len(fs.Units) != 3 {
		t.Fatalf("units = %d, want 3", len(fs.Units))
	}
	if !slices.Contains(fs.Units[0].Links, 1) || !slices.Contains(fs.Units[1].Links, 1) {
		t.Fatalf("shared link 1 should belong to both groups: %+v", fs.Units)
	}
	// Failing both groups kills 0,1,2 — and disconnects the square.
	sc := fs.ScenarioOf([]int{0, 1})
	if len(sc.Dead) != 3 || !sc.Dead[0] || !sc.Dead[1] || !sc.Dead[2] {
		t.Fatalf("overlapping groups scenario = %v", sc)
	}
	if _, bad := fs.Disconnects(g); !bad {
		t.Fatal("two overlapping SRLGs disconnect the square")
	}
}

func TestSRLGsUncoveredLinksGetSingletons(t *testing.T) {
	g := square()
	fs := SRLGSet(g, []SRLGSpec{{Links: []topology.LinkID{0}}}, 1)
	if len(fs.Units) != 4 {
		t.Fatalf("units = %d, want 1 group + 3 singletons", len(fs.Units))
	}
	for i, u := range fs.Units {
		if !slices.Equal(u.Links, []topology.LinkID{topology.LinkID(i)}) {
			t.Fatalf("unit %d links = %v, want [%d]: every link in exactly one unit", i, u.Links, i)
		}
	}
}

func TestBudgetExceedsUnits(t *testing.T) {
	g := square()
	fs := SingleLinks(g, 10) // budget > 4 units
	// Enumeration tops out at the full power set: 2^4 = 16 scenarios.
	if got := fs.Count(); got != 16 {
		t.Fatalf("count = %d, want 16", got)
	}
	if got := fs.NumScenariosExact(); got != 16 {
		t.Fatalf("exact = %d, want 16", got)
	}
	sc, bad := fs.Disconnects(g)
	if !bad {
		t.Fatal("budget > units must allow total failure")
	}
	if len(sc.FailedUnits) > 4 {
		t.Fatalf("witness uses %d units", len(sc.FailedUnits))
	}
}

func TestNodesSharedLink(t *testing.T) {
	g := square()
	// Adjacent nodes share link 0; failing both must not double-count.
	fs := Nodes(g, []topology.NodeID{0, 1}, 2)
	sc := fs.ScenarioOf([]int{0, 1})
	// Node 0 touches links 0,3; node 1 touches links 0,1.
	if len(sc.Dead) != 3 {
		t.Fatalf("dead = %v, want links {0,1,3}", sc)
	}
	if _, bad := fs.Disconnects(g); !bad {
		t.Fatal("killing nodes 0 and 1 isolates them")
	}
}

func TestNodesEmptyList(t *testing.T) {
	g := square()
	fs := Nodes(g, nil, 1)
	if len(fs.Units) != 0 {
		t.Fatalf("units = %d", len(fs.Units))
	}
	// Only the no-failure scenario.
	if got := fs.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if _, bad := fs.Disconnects(g); bad {
		t.Fatal("empty model cannot disconnect")
	}
}

// --- degradation semantics ---

func TestDegradedScenario(t *testing.T) {
	g := square()
	fs := SingleLinks(g, 2).Degrade(0.5)
	sc := fs.ScenarioOf([]int{0, 2})
	if len(sc.Dead) != 0 {
		t.Fatalf("degraded units killed links: %v", sc)
	}
	if !feq(sc.CapScale(0), 0.5) || !feq(sc.CapScale(2), 0.5) {
		t.Fatalf("degraded scales: %v %v", sc.CapScale(0), sc.CapScale(2))
	}
	if !feq(sc.CapScale(1), 1) {
		t.Fatalf("untouched link scaled: %v", sc.CapScale(1))
	}
	p, _ := g.ShortestPath(0, 2, nil, nil)
	if !sc.Alive(p) {
		t.Fatal("degraded links must stay alive")
	}
	if !strings.Contains(sc.String(), "degraded") {
		t.Fatalf("String() omits degradation: %s", sc)
	}
}

func TestMixedDeathAndDegradeUnits(t *testing.T) {
	fs := &Set{
		Units: []Unit{
			{Name: "die0", Links: []topology.LinkID{0}},
			{Name: "deg01", Links: []topology.LinkID{0, 1}, Alpha: 0.25},
			{Name: "deg1", Links: []topology.LinkID{1}, Alpha: 0.5},
		},
		Budget: 3,
	}
	sc := fs.ScenarioOf([]int{0, 1, 2})
	// Link 0: dead wins over degradation. Link 1: two degrade units
	// compose by min.
	if sc.CapScale(0) != 0 || !sc.Dead[0] {
		t.Fatalf("link 0 should be dead: %v", sc)
	}
	if _, ok := sc.Degraded[0]; ok {
		t.Fatal("dead link must not appear in Degraded")
	}
	if !feq(sc.CapScale(1), 0.25) {
		t.Fatalf("link 1 scale = %v, want min(0.25, 0.5)", sc.CapScale(1))
	}
}

func TestWorstCapScale(t *testing.T) {
	fs := &Set{
		Units: []Unit{
			{Name: "die2", Links: []topology.LinkID{2}},
			{Name: "deg0", Links: []topology.LinkID{0}, Alpha: 0.5},
			{Name: "deg01", Links: []topology.LinkID{0, 1}, Alpha: 0.75},
		},
		Budget: 1,
	}
	if got := fs.WorstCapScale(0); !feq(got, 0.5) {
		t.Fatalf("link 0 worst scale = %v, want 0.5", got)
	}
	if got := fs.WorstCapScale(1); !feq(got, 0.75) {
		t.Fatalf("link 1 worst scale = %v, want 0.75", got)
	}
	// Death units don't tighten the alive-capacity bound.
	if got := fs.WorstCapScale(2); !feq(got, 1) {
		t.Fatalf("link 2 worst scale = %v, want 1", got)
	}
	if got := (&Set{Units: fs.Units, Budget: 0}).WorstCapScale(0); !feq(got, 1) {
		t.Fatalf("budget 0 worst scale = %v, want 1", got)
	}
}

// --- SRLG file parser ---

func TestReadSRLGs(t *testing.T) {
	in := "# conduit\n0 3\nalpha=0.5 2\n\n1\n"
	specs, err := ReadSRLGs(strings.NewReader(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("groups = %d", len(specs))
	}
	if specs[0].Alpha != 0 || len(specs[0].Links) != 2 {
		t.Fatalf("group 0 = %+v", specs[0])
	}
	if !feq(specs[1].Alpha, 0.5) || specs[1].Links[0] != 2 {
		t.Fatalf("group 1 = %+v", specs[1])
	}
	g := square()
	fs := SRLGSet(g, specs, 1)
	// 3 groups cover links 0,1,2,3 entirely — no singletons added.
	if len(fs.Units) != 3 {
		t.Fatalf("units = %d", len(fs.Units))
	}
	if !feq(fs.Units[1].Alpha, 0.5) {
		t.Fatalf("degrade alpha lost: %+v", fs.Units[1])
	}
}

func TestReadSRLGsRejects(t *testing.T) {
	bad := []string{
		"", // no groups
		"# only comments\n",
		"0 9\n",         // id out of range
		"-1\n",          // negative id
		"0 0\n",         // duplicate within group
		"x\n",           // non-numeric
		"alpha=1.5 0\n", // alpha outside (0,1)
		"alpha=0 0\n",   // alpha must be > 0
		"alpha=NaN 0\n", // NaN alpha
		"alpha=xx 0\n",  // unparsable alpha
		"alpha=0.5\n",   // alpha but no links
	}
	for _, in := range bad {
		if _, err := ReadSRLGs(strings.NewReader(in), 4); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}
