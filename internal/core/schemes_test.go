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

// TestSolverKeepsMasters: a Solver keeps one master per kind, whichever
// rows solve it. A rung's first solve builds what it needs (the PCF-LS
// rung the PCF master, the PCF-CLS rung its pool) and every later one,
// by any row whose ladder holds the rung, reuses it; every plan equals a
// one-shot solve's. Solving every row, best entered at every rung,
// keeps exactly three masters: PCF-LS and PCF-CLS share the PCF master.
func TestSolverKeepsMasters(t *testing.T) {
	in := gadgetInstances(t)["fig5-f2"]
	sv := NewSolver(in)
	built := map[string]bool{}
	for _, name := range SchemeNames() {
		row, _ := LookupScheme(name)
		for skip := 0; skip < row.Rungs(); skip++ {
			want, err := row.Solve(in, SolveOptions{}, skip)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 2; k++ {
				got, err := sv.Solve(row, SolveOptions{}, skip)
				if err != nil {
					t.Fatal(err)
				}
				gs, ws := got.Stats, want.Stats
				gs.PrepareTime, gs.CompileTime, ws.PrepareTime, ws.CompileTime = 0, 0, 0, 0
				if got.Scheme != want.Scheme || math.Float64bits(got.Value) != math.Float64bits(want.Value) || gs != ws || fmt.Sprint(got.TunnelRes) != fmt.Sprint(want.TunnelRes) {
					t.Fatalf("%s at rung %d, solve %d: %s %v %+v, one-shot %s %v %+v", name, skip, k, got.Scheme, got.Value, gs, want.Scheme, want.Value, ws)
				}
				build := got.Stats.PrepareTime > 0 || got.Stats.CompileTime > 0
				if build == built[got.Scheme] {
					t.Fatalf("%s at rung %d, solve %d: build reported %v, %s master built before %v", name, skip, k, build, got.Scheme, built[got.Scheme])
				}
				built[got.Scheme] = true
			}
		}
	}
	if len(sv.masters) != 3 {
		t.Fatalf("%d masters kept, want one per kind: 3", len(sv.masters))
	}
}
