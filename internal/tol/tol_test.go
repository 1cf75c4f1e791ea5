package tol

import "testing"

// TestOrder pins each ordering between tolerances that the code relies
// on. DESIGN.md §19 gives the argument behind each, and names the
// relations that hold by value but that no code relies on.
func TestOrder(t *testing.T) {
	for _, r := range []struct {
		relation string
		holds    bool
	}{
		// The primal ratio test falls back to entries above Feas when
		// none exceeds Pivot: the fallback must admit more rows.
		{"Feas < Pivot", Feas < Pivot},
		// The dual simplex admits a column whose pivot-row entry is
		// below -Pivot; its FTRAN entry reads as drift above
		// -PivotDrift, which a consistent column must not.
		{"PivotDrift < Pivot", PivotDrift < Pivot},
		// An optimal basis has no reduced cost below -Opt; re-solved
		// after a right-hand-side edit it must pass the warm dual check.
		{"Opt <= Restart", Opt <= Restart},
		// Phase 1 ends on a basis feasible to Feas; its artificials'
		// round-off must not read as infeasibility.
		{"Feas < Artificial", Feas < Artificial},
		// A cut the master meets to Feas is violated by at most Feas at
		// its own point, so it is never added twice.
		{"Feas < Cut", Feas < Cut},
		// The certificate accepts what the simplex accepts.
		{"Feas < Certificate", Feas < Certificate},
		{"Opt < Certificate", Opt < Certificate},
		// A pair served for one destination within PairUtil passes the
		// aggregate bound.
		{"PairUtil <= AggUtil", PairUtil <= AggUtil},
		// A pool column pricing enters is one the simplex would pivot
		// in.
		{"Opt <= Price", Opt <= Price},
		// Reservations the master keeps within capacity to Feas do not
		// overload an arc.
		{"Feas < Overload", Feas < Overload},
		// A hundred thousand flows dropped as carrying nothing cannot put a
		// node out of balance.
		{"1e5*Carry < Balance", 1e5*Carry < Balance},
		// A low-rank arc load keeps the dense loop's overload verdict
		// wherever its round-off bound is below the margin; on an arc
		// of a million flows and unit load the bound is 16e6 RoundOffs,
		// which must leave that margin almost whole.
		{"16e6*RoundOff < Overload/100", 16e6*RoundOff < Overload/100},
	} {
		if !r.holds {
			t.Errorf("%s does not hold", r.relation)
		}
	}
}
