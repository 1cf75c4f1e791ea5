package failures

import (
	"fmt"
	"slices"
	"testing"

	"pcf/internal/topology"
)

func square() *topology.Graph {
	g := topology.New("square")
	for i := 0; i < 4; i++ {
		g.AddNode("n")
	}
	g.AddLink(0, 1, 1)
	g.AddLink(1, 2, 1)
	g.AddLink(2, 3, 1)
	g.AddLink(3, 0, 1)
	return g
}

// visits returns the number of scenarios fs.Enumerate visits.
func visits(fs *Set) int {
	n := 0
	fs.Enumerate(func(Scenario) bool { n++; return true })
	return n
}

func TestSingleLinksEnumeration(t *testing.T) {
	g := square()
	fs := SingleLinks(g, 1)
	if len(fs.Units) != 4 {
		t.Fatalf("units = %d", len(fs.Units))
	}
	// Scenarios: empty + 4 singles = 5.
	if got := visits(fs); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := fs.NumScenariosExact(); got != 5 {
		t.Fatalf("exact = %d, want 5", got)
	}
}

func TestEnumerateBudgetTwo(t *testing.T) {
	g := square()
	fs := SingleLinks(g, 2)
	// 1 + 4 + C(4,2)=6 -> 11.
	if got := visits(fs); got != 11 {
		t.Fatalf("count = %d, want 11", got)
	}
	if fs.NumScenariosExact() != 11 {
		t.Fatal("exact mismatch")
	}
	// Every scenario has at most 2 dead links and marks exactly the
	// union of its units.
	fs.Enumerate(func(sc Scenario) bool {
		if len(sc.FailedUnits) > 2 {
			t.Fatalf("too many failed units: %v", sc)
		}
		if len(sc.Dead) != len(sc.FailedUnits) {
			t.Fatalf("dead links %d != units %d", len(sc.Dead), len(sc.FailedUnits))
		}
		return true
	})
}

func TestEnumerateEarlyStop(t *testing.T) {
	g := square()
	fs := SingleLinks(g, 2)
	visits := 0
	done := fs.Enumerate(func(sc Scenario) bool {
		visits++
		return visits < 3
	})
	if done || visits != 3 {
		t.Fatalf("early stop failed: done=%v visits=%d", done, visits)
	}
}

func TestScenarioAlive(t *testing.T) {
	g := square()
	fs := SingleLinks(g, 1)
	p, _ := g.ShortestPath(0, 2, nil, nil)
	usedLink := topology.LinkOf(p.Arcs[0])
	var scWithUsed, scWithout Scenario
	fs.Enumerate(func(sc Scenario) bool {
		if sc.Dead[usedLink] {
			scWithUsed = sc
		} else if len(sc.FailedUnits) == 1 {
			scWithout = sc
		}
		return true
	})
	if scWithUsed.Alive(p) {
		t.Fatal("path should be dead when its link fails")
	}
	if !scWithout.Alive(p) {
		t.Fatal("path should survive unrelated failure")
	}
	if !scWithUsed.Dead[usedLink] {
		t.Fatal("the failed link should be dead")
	}
}

func TestSRLGs(t *testing.T) {
	g := square()
	fs := SRLGSet(g, []SRLGSpec{{Links: []topology.LinkID{2, 0}}}, 1)
	// 1 group + 2 uncovered singleton links = 3 units.
	if len(fs.Units) != 3 {
		t.Fatalf("units = %d, want 3", len(fs.Units))
	}
	// Failing the SRLG kills links 0 and 2 together.
	found := false
	fs.Enumerate(func(sc Scenario) bool {
		if len(sc.FailedUnits) == 1 && sc.Dead[0] && sc.Dead[2] {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("SRLG scenario with both links dead not found")
	}
}

func TestNodes(t *testing.T) {
	g := square()
	fs := Nodes(g, []topology.NodeID{1}, 1)
	if len(fs.Units) != 1 {
		t.Fatalf("units = %d", len(fs.Units))
	}
	if len(fs.Units[0].Links) != 2 {
		t.Fatalf("node 1 should have 2 incident links, got %v", fs.Units[0].Links)
	}
}

func TestUnitsOf(t *testing.T) {
	g := square()
	fs := SRLGSet(g, []SRLGSpec{{Links: []topology.LinkID{2, 0}}}, 1)
	// Links 0 and 2 share the group's dying unit; links 1 and 3 each
	// have a singleton unit of their own.
	if got := fs.Units[0].Links; !slices.Equal(got, []topology.LinkID{0, 2}) || fs.Units[0].Alpha != 0 {
		t.Fatalf("group unit = %+v, want links [0 2] dying", fs.Units[0])
	}
	for i, want := range []topology.LinkID{1, 3} {
		if got := fs.Units[1+i].Links; !slices.Equal(got, []topology.LinkID{want}) {
			t.Fatalf("unit %d links = %v, want [%d]", 1+i, got, want)
		}
	}
}

func TestDisconnects(t *testing.T) {
	g := square()
	if _, bad := SingleLinks(g, 1).Disconnects(g); bad {
		t.Fatal("square survives any single failure")
	}
	sc, bad := SingleLinks(g, 2).Disconnects(g)
	if !bad {
		t.Fatal("square can be disconnected by two failures")
	}
	if len(sc.FailedUnits) != 2 {
		t.Fatalf("witness = %v", sc)
	}
}

func TestNoFailureScenarioIncluded(t *testing.T) {
	g := square()
	fs := SingleLinks(g, 1)
	sawEmpty := false
	fs.Enumerate(func(sc Scenario) bool {
		if len(sc.FailedUnits) == 0 {
			sawEmpty = true
			if sc.String() != "{no failure}" {
				t.Fatalf("string = %q", sc.String())
			}
		}
		return true
	})
	if !sawEmpty {
		t.Fatal("no-failure scenario missing")
	}
}

// Property: Count always equals the closed-form C(n,<=f) and every
// enumerated scenario is distinct.
func TestPropertyEnumerationComplete(t *testing.T) {
	g := square()
	for f := 0; f <= 4; f++ {
		fs := SingleLinks(g, f)
		seen := map[string]bool{}
		fs.Enumerate(func(sc Scenario) bool {
			key := fmt.Sprint(sc.FailedUnits)
			if seen[key] {
				t.Fatalf("duplicate scenario %v", sc)
			}
			seen[key] = true
			return true
		})
		if len(seen) != fs.NumScenariosExact() {
			t.Fatalf("f=%d: enumerated %d, exact %d", f, len(seen), fs.NumScenariosExact())
		}
	}
}
