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
// one-shot solve's. Solving every row, and best once more with every
// master but FFC's failing at its first start so that it answers on
// FFC, keeps exactly three masters: PCF-LS and PCF-CLS share the PCF
// master.
func TestSolverKeepsMasters(t *testing.T) {
	in := gadgetInstances(t)["fig5-f2"]
	// ffcRows holds the row count of every LP start of an FFC solve; the
	// hook fails every other start.
	ffcRows := map[int]bool{}
	var record SolveOptions
	record.LP.FaultHook = func(ev lp.FaultEvent) error {
		if ev.Point == lp.FaultSolveStart {
			ffcRows[ev.Rows] = true
		}
		return nil
	}
	ffc, _ := LookupScheme(SchemeFFC)
	if _, err := ffc.Solve(in, record); err != nil {
		t.Fatal(err)
	}
	var onlyFFC SolveOptions
	onlyFFC.LP.FaultHook = func(ev lp.FaultEvent) error {
		if ev.Point == lp.FaultSolveStart && !ffcRows[ev.Rows] {
			return lp.ErrNumerical
		}
		return nil
	}
	type solve struct {
		name string
		opts SolveOptions
	}
	var solves []solve
	for _, name := range SchemeNames() {
		solves = append(solves, solve{name, SolveOptions{}})
	}
	solves = append(solves, solve{SchemeBest, onlyFFC})
	sv := NewSolver(in)
	built := map[string]bool{}
	for _, s := range solves {
		name, opts := s.name, s.opts
		row, _ := LookupScheme(name)
		want, err := row.Solve(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if opts.LP.FaultHook != nil && (want.Scheme != SchemeFFC || fmt.Sprint(want.Degraded) != "[PCF-CLS]") {
			t.Fatalf("best with the PCF master failing: %s degraded %v, want FFC degraded [PCF-CLS]", want.Scheme, want.Degraded)
		}
		for k := 0; k < 2; k++ {
			got, err := sv.Solve(row, opts)
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := got.Stats, want.Stats
			gs.PrepareTime, gs.CompileTime, ws.PrepareTime, ws.CompileTime = 0, 0, 0, 0
			if got.Scheme != want.Scheme || math.Float64bits(got.Value) != math.Float64bits(want.Value) || gs != ws || fmt.Sprint(got.TunnelRes) != fmt.Sprint(want.TunnelRes) {
				t.Fatalf("%s answered by %s, solve %d: %s %v %+v, one-shot %s %v %+v", name, want.Scheme, k, got.Scheme, got.Value, gs, want.Scheme, want.Value, ws)
			}
			build := got.Stats.PrepareTime > 0 || got.Stats.CompileTime > 0
			if build == built[got.Scheme] {
				t.Fatalf("%s answered by %s, solve %d: build reported %v, %s master built before %v", name, want.Scheme, k, build, got.Scheme, built[got.Scheme])
			}
			built[got.Scheme] = true
		}
	}
	if len(sv.masters) != 3 {
		t.Fatalf("%d masters kept, want one per kind: 3", len(sv.masters))
	}
}
