package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pcf/internal/topology"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	in := fig1Instance(4, 1)
	plan, err := SolvePCFTF(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlanJSON(&buf, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != plan.Scheme || math.Abs(got.Value-plan.Value) > 1e-12 {
		t.Fatalf("header mismatch: %+v vs %+v", got, plan)
	}
	for tid, v := range plan.TunnelRes {
		if v > 0 && math.Abs(got.TunnelRes[tid]-v) > 1e-12 {
			t.Fatalf("tunnel %d: %g vs %g", tid, got.TunnelRes[tid], v)
		}
	}
	pair := topology.Pair{Src: 0, Dst: 5}
	if math.Abs(got.Z[pair]-plan.Z[pair]) > 1e-9 {
		t.Fatalf("z mismatch: %g vs %g", got.Z[pair], plan.Z[pair])
	}
}

func TestPlanJSONWithLSs(t *testing.T) {
	// The Fig. 5 PCF-CLS plan has a conditional LS with positive
	// reservation.
	in, gad := fig5TunnelInstance(2)
	g := gad.Graph
	s, tt, n4 := gad.S, gad.T, gad.Aux["4"]
	pair := topology.Pair{Src: s, Dst: tt}
	var s4link topology.LinkID = -1
	for _, l := range g.Links() {
		if (l.A == s && l.B == n4) || (l.A == n4 && l.B == s) {
			s4link = l.ID
		}
	}
	s4 := topology.Pair{Src: s, Dst: n4}
	p4t := topology.Pair{Src: n4, Dst: tt}
	in.Tunnels.MustAdd(s4, nodePath(g, s, n4))
	in.Tunnels.MustAdd(p4t, nodePath(g, n4, gad.Aux["1"], gad.Aux["5"], tt))
	in.Tunnels.MustAdd(p4t, nodePath(g, n4, gad.Aux["2"], gad.Aux["6"], tt))
	in.Tunnels.MustAdd(p4t, nodePath(g, n4, gad.Aux["3"], gad.Aux["7"], tt))
	in.LSs = []LogicalSequence{{ID: 0, Pair: pair, Hops: []topology.NodeID{n4}, Cond: LinkAlive(s4link)}}
	plan, err := SolvePCFCLS(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "logical_sequences") || !strings.Contains(text, "alive_links") {
		t.Fatalf("serialized plan missing LS fields:\n%s", text)
	}
	got, err := ReadPlanJSON(strings.NewReader(text), plan.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.LSRes[0]-plan.LSRes[0]) > 1e-12 {
		t.Fatalf("LS reservation %g vs %g", got.LSRes[0], plan.LSRes[0])
	}
}

func TestReadPlanJSONRejectsMismatch(t *testing.T) {
	in := fig1Instance(4, 1)
	plan, err := SolvePCFTF(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Different instance (fewer tunnels): structural match must fail
	// for any tunnel missing there.
	other := fig1Instance(2, 1)
	if _, err := ReadPlanJSON(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("mismatched instance accepted")
	}
	if _, err := ReadPlanJSON(strings.NewReader("{not json"), in); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// TestPlanJSONMatchesLSConditions: two LSs on one pair and path that
// differ only in their conditions keep their own reservations through
// a round trip.
func TestPlanJSONMatchesLSConditions(t *testing.T) {
	in := fig1Instance(4, 1)
	plan, err := SolvePCFTF(in, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pair := topology.Pair{Src: 0, Dst: 5}
	hops := []topology.NodeID{1}
	in.LSs = []LogicalSequence{
		{ID: 0, Pair: pair, Hops: hops, Cond: LinkDead(0)},
		{ID: 1, Pair: pair, Hops: hops, Cond: LinkDead(1)},
	}
	plan.Instance, plan.LSRes = in, map[LSID]float64{0: 0.25, 1: 0.5}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlanJSON(&buf, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.LSRes) != 2 || math.Abs(got.LSRes[0]-0.25) > 1e-12 || math.Abs(got.LSRes[1]-0.5) > 1e-12 {
		t.Fatalf("LS reservations read back as %v, want map[0:0.25 1:0.5]", got.LSRes)
	}
}
