package core

import (
	"math"
	"math/rand"
	"testing"

	"pcf/internal/lp"
	"pcf/internal/topology"
)

// TestPricedMatchesFullPoolGadgets: on the quick CLS instance of every
// §2 gadget, of the Sprint benchmark instance and of random instances,
// under both objectives, a master that holds every pool column from the
// start reaches the priced master's value to 1e-9.
func TestPricedMatchesFullPoolGadgets(t *testing.T) {
	instances := map[string]*Instance{"sprint": sprintInstance(t)}
	for name, in := range gadgetInstances(t) {
		instances[name] = in
	}
	rng := rand.New(rand.NewSource(51))
	for k := 0; k < 12; k++ {
		instances["random"+string(rune('a'+k))] = randomInstance(rng)
	}
	for name, base := range instances {
		for _, obj := range []Objective{DemandScale, Throughput} {
			in, _, err := BuildCLSQuick(base)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			in.Objective = obj
			priced, err := SolvePCFCLS(in, SolveOptions{})
			if err != nil {
				t.Fatalf("%s %v priced: %v", name, obj, err)
			}
			full, err := SolveFullPool(in, SolveOptions{})
			if err != nil {
				t.Fatalf("%s %v full pool: %v", name, obj, err)
			}
			if d := math.Abs(priced.Value - full.Value); d > 1e-9 {
				t.Errorf("%s %v: priced %.12f, full pool %.12f", name, obj, priced.Value, full.Value)
			}
		}
	}
}

// TestMasterDualsPriceZ is the dual read-out pricing rests on. Under the
// demand-scale objective every cut is homogeneous and a capacity row's
// right-hand side is its arc's worst-degradation capacity, so LP
// duality gives z* = Σ_a π_a·cap_a·WorstCapScale(a) over the capacity
// rows. For the final master of every scheme row on the §2 gadgets'
// quick CLS instances and on Sprint's, read as pricing reads them
// (cutDual for a cut, the row's own dual for a capacity row): the sum
// equals z* to 1e-9, every dual is ≥ 0, and a positive dual sits on a
// row the plan holds tight. A sign slip in the read-out fails here
// before it misprices a column.
func TestMasterDualsPriceZ(t *testing.T) {
	instances := map[string]*Instance{"sprint": sprintInstance(t)}
	for name, in := range gadgetInstances(t) {
		instances[name] = in
	}
	admitted := 0
	for name, base := range instances {
		in, _, err := BuildCLSQuick(base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, row := range schemes {
			r := row.rungs[0]
			ms, err := keptCutsMaster(r.master, in)
			if err != nil {
				t.Fatalf("%s %s: %v", name, row.Name, err)
			}
			it, sol, _, err := ms.run(SolveOptions{}, r.price)
			if err != nil {
				t.Fatalf("%s %s: %v", name, row.Name, err)
			}
			checkDuals(t, name+" "+row.Name, ms, it, sol)
			if sol.Objective > 0 {
				admitted++
			}
		}
	}
	// FFC admits nothing on Fig. 1 at f=2 and on Fig. 5 (Table 1): its
	// two tunnels can both fail. Every other master must, or its checks
	// pass vacuously.
	if want := len(instances)*len(schemes) - 2; admitted != want {
		t.Fatalf("%d masters admit something, want %d", admitted, want)
	}
}

// keptCutsMaster builds kind's master on in as the Solver does, with
// every cut row recorded. A PCF master with a pool records them for
// pricing; a master without one (TF, FFC, and PCF where in has no
// conditional LS) is built here from the same pieces.
func keptCutsMaster(kind *masterKind, in *Instance) (*master, error) {
	stripped := *in
	stripped.LSs = nil
	switch {
	case kind == ffcMaster:
		return unpooledMaster(&stripped, SchemeFFC, buildFFCAdversary, in.FFCTunnels, true)
	case kind == tfMaster:
		return unpooledMaster(&stripped, SchemePCFTF, buildPCFAdversary, 0, true)
	case hasConditional(in):
		return kind.build(in)
	}
	return unpooledMaster(in, SchemePCFLS, buildPCFAdversary, 0, true)
}

func checkDuals(t *testing.T, name string, ms *master, it *iterate, sol *lp.Solution) {
	t.Helper()
	const eps = 1e-9
	in := ms.in
	capRow := it.capRow
	if capRow == nil {
		capRow = ms.capRow
	}
	load := make([]float64, in.Graph.NumArcs())
	for tid, v := range ms.mv.a {
		x := it.value(sol, v)
		for _, arc := range in.Tunnels.Tunnel(tid).Path.Arcs {
			load[arc] += x
		}
	}
	z, caps, read := 0.0, 0, map[int]bool{}
	for arc, row := range capRow {
		if row < 0 {
			continue
		}
		caps++
		read[row] = true
		pi, rhs := sol.Dual(row), arcCapacity(in, topology.ArcID(arc))
		if pi < -eps {
			t.Errorf("%s: capacity row of arc %d has dual %g < 0", name, arc, pi)
		}
		if pi > eps && math.Abs(load[arc]-rhs) > eps*(1+rhs) {
			t.Errorf("%s: arc %d carries %g of %g, slack, at dual %g", name, arc, load[arc], rhs, pi)
		}
		z += pi * rhs
	}
	for i, cuts := range it.cuts {
		for _, c := range cuts {
			read[c.row] = true
			y, act := cutDual(sol, c.row), sol.Eval(c.expr)
			if y < -eps {
				t.Errorf("%s: a cut of %v has dual %g < 0", name, ms.specs[i].pair, y)
			}
			if y > eps && math.Abs(act) > eps {
				t.Errorf("%s: a cut of %v holds with slack %g at dual %g", name, ms.specs[i].pair, act, y)
			}
		}
	}
	// The master's rows are its capacity rows and its it.numCuts cuts,
	// numbered from 0: each was read, and as one row only. AddRow on a
	// clone numbers the row after the master's last, so it is the LP's
	// own row count.
	n := caps + it.numCuts
	for r := 0; r < n; r++ {
		if !read[r] {
			t.Fatalf("%s: row %d of the master's %d read as neither a capacity row nor a cut", name, r, n)
		}
	}
	if m := it.cm.Clone().AddRow(lp.NewExpr(), lp.LE, 0); len(read) != n || n != m {
		t.Fatalf("%s: %d distinct capacity and cut rows read of %d counted, the master LP has %d", name, len(read), n, m)
	}
	if math.Abs(z-sol.Objective) > eps {
		t.Errorf("%s: Σ π·cap = %.12f, z* = %.12f", name, z, sol.Objective)
	}
}
