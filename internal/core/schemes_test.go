package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"pcf/internal/lp"
)

func TestDegradable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{lp.ErrNumerical, true},
		{fmt.Errorf("wrap: %w", lp.ErrNumerical), true},
		{lp.ErrIterLimit, true},
		{ErrCutLimit, true},
		{lp.ErrInfeasible, false},
		{context.DeadlineExceeded, false},
		{errors.New("unrelated"), false},
	}
	for _, c := range cases {
		if got := Degradable(c.err); got != c.want {
			t.Errorf("Degradable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestLookupSchemeIgnoresCase: every row resolves from its name in any
// case, so pcfplan's lower-case -scheme values and pcfd's ?scheme=
// name the same rows, and nothing else resolves.
func TestLookupSchemeIgnoresCase(t *testing.T) {
	for _, name := range SchemeNames() {
		for _, asked := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			if s, ok := LookupScheme(asked); !ok || s.Name != name {
				t.Errorf("LookupScheme(%q) = %v, %v; want the %s row", asked, s, ok, name)
			}
		}
	}
	for _, asked := range []string{"", "R3", "Optimal", "PCF-CLS-TopSort", "pcf_tf"} {
		if s, ok := LookupScheme(asked); ok {
			t.Errorf("LookupScheme(%q) = %s, want no row", asked, s.Name)
		}
	}
}

// TestSolverKeepsMasters: a Solver builds a rung's master on the rung's
// first solve and reuses it after; a solve that finds the master busy
// solves a transient one and keeps nothing. Every plan equals a
// one-shot solve's.
func TestSolverKeepsMasters(t *testing.T) {
	in := gadgetInstances(t)["fig5-f2"]
	row, _ := LookupScheme(SchemePCFTF)
	want, err := row.Solve(in, SolveOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got *Plan) {
		t.Helper()
		gs, ws := got.Stats, want.Stats
		gs.PrepareTime, gs.CompileTime, ws.PrepareTime, ws.CompileTime = 0, 0, 0, 0
		if math.Float64bits(got.Value) != math.Float64bits(want.Value) || gs != ws || fmt.Sprint(got.TunnelRes) != fmt.Sprint(want.TunnelRes) {
			t.Fatalf("%s: %v %+v, one-shot %v %+v", what, got.Value, gs, want.Value, ws)
		}
	}
	sv := row.NewSolver(in)
	kept := &sv.rungs[0]
	kept.mu.Lock()
	busy, err := sv.Solve(SolveOptions{}, 0)
	kept.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	same("busy", busy)
	if kept.m != nil || busy.Stats.PrepareTime == 0 {
		t.Fatalf("a busy rung's solve kept its master (%v) or reported no build (%v)", kept.m != nil, busy.Stats.PrepareTime)
	}
	for k := 0; k < 2; k++ {
		got, err := sv.Solve(SolveOptions{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("solve %d", k), got)
		if built := got.Stats.PrepareTime > 0 || got.Stats.CompileTime > 0; built != (k == 0) || kept.m == nil {
			t.Fatalf("solve %d: build reported %v, master kept %v", k, built, kept.m != nil)
		}
	}
}
