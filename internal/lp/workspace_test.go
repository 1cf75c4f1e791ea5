package lp

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// chainLP is min Σx with x_i + x_{i+1} ≥ 1 over n rows and 0 ≤ x ≤ 1:
// every GE row starts on an artificial, so a cold solve runs both
// phases and needs about n pivots.
func chainLP(n int) *Model {
	m := NewModel()
	obj := NewExpr()
	x := make([]Var, n+1)
	for i := range x {
		x[i] = m.AddVar(0, 1)
		obj.Add(1, x[i])
	}
	for i := 0; i < n; i++ {
		m.AddConstraint(NewExpr().Add(1, x[i]).Add(1, x[i+1]), GE, 1)
	}
	m.SetObjective(obj, Minimize)
	return m
}

// TestSecondColdSolveGrowsNoArena: the factorization workspace belongs
// to the Compiled, so from the second cold Solve on the only
// allocations left are the Solution's — a fixed number of objects
// whatever the row count — and every workspace buffer, the partition's,
// the copies of N, the non-zero lists, the iteration's vectors and the
// state's included, stays where it is, while a clone, which starts
// without a workspace, pays for growing every arena again.
func TestSecondColdSolveGrowsNoArena(t *testing.T) {
	steady := func(cm *Compiled) int {
		if sol, err := cm.Solve(Options{}); err != nil || sol.Status != StatusOptimal {
			t.Fatalf("first solve: %v, %v", sol, err)
		}
		return int(testing.AllocsPerRun(5, func() {
			if _, err := cm.Solve(Options{}); err != nil {
				t.Fatal(err)
			}
		}))
	}
	small, large := steady(Compile(chainLP(20))), Compile(chainLP(150))
	warm := steady(large)
	if warm != small {
		t.Fatalf("a cold re-solve allocates %v objects at 301 rows and %v at 41: something grows with the factorization", warm, small)
	}
	// The partition's buffers are part of that workspace: one more solve
	// must find every one of them where the last left it.
	ws := large.fac
	arenas := func() []any {
		return []any{&ws.cover[0], &ws.covRow[0], &ws.slot[0], &ws.unit[0], &ws.kPos[:1][0], &ws.kRows[:1][0],
			&ws.rowPtr[:1][0], &ws.rowEnt[:1][0], &ws.nPtr[:1][0], &ws.nEnt[:1][0], &ws.rhs[0], &ws.nz[:1][0], &ws.kb[:1][0], &ws.kx[:1][0], &ws.kw[:1][0],
			&ws.cB[0], &ws.y[0], &ws.d[0], &ws.rho[0], &ws.cNZ[:1][0],
			&ws.basis[0], &ws.xB[0], &ws.artSign[0], &ws.inB[0], &ws.cost[0], &ws.xs[0]}
	}
	before := arenas()
	if _, err := large.Solve(Options{}); err != nil {
		t.Fatal(err)
	}
	for i, p := range arenas() {
		if p != before[i] {
			t.Fatalf("workspace buffer %d moved between two cold solves of one Compiled", i)
		}
	}
	clone := testing.AllocsPerRun(5, func() { large.Clone() })
	fresh := testing.AllocsPerRun(5, func() {
		if _, err := large.Clone().Solve(Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if int(fresh-clone) <= warm {
		t.Fatalf("a solve on a fresh workspace allocates %v objects, a re-solve %v: the workspace is not being reused", fresh-clone, warm)
	}
}

// TestSweepWorkerClonesShareNoWorkspace is the mcf scenario sweep's
// shape: one Compiled solved once (the base solve), then a clone per
// worker, all solving at the same time. Clone must not hand out the
// source's workspace — under -race a shared one is a data race, and
// without it the workers would corrupt each other's factors — so every
// worker must reproduce the serial answers bit for bit.
func TestSweepWorkerClonesShareNoWorkspace(t *testing.T) {
	const rows, workers = 60, 4
	cm := Compile(chainLP(rows))
	base, err := cm.Solve(Options{})
	if err != nil || base.Status != StatusOptimal {
		t.Fatalf("base solve: %v, %v", base, err)
	}
	// Each "scenario" relaxes one row; the serial sweep on the source
	// is the reference.
	sweep := func(c *Compiled) []float64 {
		out := make([]float64, 0, rows)
		basis := base.Basis
		for r := 0; r < rows; r++ {
			c.SetRowRHS(r, 0.25)
			sol, err := c.Solve(Options{WarmStart: basis})
			c.SetRowRHS(r, 1)
			if err != nil || sol.Status != StatusOptimal {
				t.Errorf("scenario %d: %v, %v", r, sol, err)
				return nil
			}
			basis = sol.Basis
			out = append(out, sol.Objective)
		}
		return out
	}
	want := sweep(cm)
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, c *Compiled) {
			defer wg.Done()
			got[w] = sweep(c)
		}(w, cm.Clone())
	}
	wg.Wait()
	for w := range got {
		if len(got[w]) != len(want) {
			t.Fatalf("worker %d finished %d of %d scenarios", w, len(got[w]), len(want))
		}
		for r := range want {
			if math.Float64bits(got[w][r]) != math.Float64bits(want[r]) {
				t.Fatalf("worker %d, scenario %d: %.17g, serial %.17g", w, r, got[w][r], want[r])
			}
		}
	}
}

// TestSolveLeavesNoStateInWorkspace: once Compiled.Solve or
// Polytope.Minimize returns, on success or on error, the simplex state
// in the workspace references neither the Compiled it solved nor that
// solve's Options, so a kept workspace pins no finished solve's model,
// Context, WarmStart basis or FaultHook.
func TestSolveLeavesNoStateInWorkspace(t *testing.T) {
	ws := NewWorkspace()
	empty := func(what string) {
		t.Helper()
		st := &ws.fac.st
		if st.cm != nil || st.opts.Context != nil || st.opts.WarmStart != nil || st.opts.FaultHook != nil {
			t.Fatalf("after %s the workspace state holds cm %v, Context %v, WarmStart %v, FaultHook %v",
				what, st.cm != nil, st.opts.Context != nil, st.opts.WarmStart != nil, st.opts.FaultHook != nil)
		}
	}
	base := Compile(chainLP(20))
	first, err := base.Solve(Options{})
	if err != nil || first.Status != StatusOptimal {
		t.Fatalf("cold solve: %v, %v", first, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := func(FaultEvent) error { return nil }
	warm, err := base.CloneIn(ws).Solve(Options{Context: ctx, WarmStart: first.Basis, FaultHook: hook})
	if err != nil || !warm.Stats.WarmHit {
		t.Fatalf("warm solve: %v, warm hit %v", err, warm != nil && warm.Stats.WarmHit)
	}
	empty("a warm solve")

	canceled, stop := cancelAt(5)
	if _, err := Compile(chainLP(200)).CloneIn(ws).Solve(Options{Context: canceled, FaultHook: stop}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve: %v", err)
	}
	empty("a canceled solve")

	p := ws.NewPolytope()
	x, y := p.AddVar(), p.AddVar()
	p.AddRow([]AdvTerm{{x, 1}, {y, 1}}, LE, 1)
	p.AddUpperBound(x, 1)
	if _, _, err := p.Minimize([]float64{-1, -2}); err != nil {
		t.Fatal(err)
	}
	empty("Polytope.Minimize")
}
