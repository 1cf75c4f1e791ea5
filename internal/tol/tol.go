// Package tol is the module's numerical vocabulary: every threshold
// that decides a pivot, a cut, a tie or a verdict, named once. It holds
// only untyped constants, so each name compiles to exactly the literal
// it replaced. pcflint's floatcmp reports a floating-point literal
// below 1e-3 in non-test code under internal/ and cmd/ outside this
// package, and DESIGN.md §19 tabulates every name with its sites.
// tol_test.go pins each ordering between names that the code relies
// on; each constant's comment says which one.
//
// All values are absolute unless a comment says relative. Three
// decisions are made with two values each: path ties (Tie, TunnelTie),
// "carries nothing" (Carry in routing, Feas in core's heuristics) and
// the utilization bound (PairUtil per destination, AggUtil in
// aggregate). Unifying any of the three moves a tunnel or a verdict, so
// each waits for a change that accepts new plans.
package tol

// The simplex (internal/lp), on the values of the model as built.
const (
	// Progress is the simplex's strict-progress margin: the primal
	// objective must fall, or the dual's worst infeasibility rise, by
	// more than Progress to reset the stall counter, and two dual
	// ratios within Progress of each other tie, the larger pivot
	// winning. The smallest LP threshold, below PivotDrift.
	Progress = 1e-12
	// PivotDrift is the dual simplex's consistency check: the FTRAN
	// column's entry in the leaving row must be below -PivotDrift, or
	// the factorization has drifted from the pivot row that chose the
	// column. Below Pivot, so a column the row admitted never reads as
	// drift.
	PivotDrift = 1e-10
	// Feas is the feasibility and zero tolerance: basic values above
	// -Feas are feasible (and snapped to zero between -Feas and 0), the
	// primal Harris pass widens the least ratio by Feas relative, and
	// the ratio test falls back to entries above Feas when none exceeds
	// Pivot. core reads LP values with it: a point inside a polytope to
	// Feas, |v| < Feas clamped to zero, a demand or bypass flow at or
	// below Feas carries nothing.
	Feas = 1e-9
	// Opt is the reduced-cost optimality tolerance: a column enters
	// only when its reduced cost is below -Opt.
	Opt = 1e-9
	// Pivot is the least |entry| the primal ratio test and the dual
	// entering-column test accept as a pivot. Above Feas, which is the
	// primal test's fallback.
	Pivot = 1e-8
	// Restart governs reusing a basis: a basic artificial left after
	// phase 1 is driven out on a column whose entry in its row exceeds
	// Restart, and a warm basis whose reduced costs are all above
	// -Restart starts the dual simplex. At least Opt, so an optimal
	// basis re-solved after a right-hand-side edit is dual feasible.
	Restart = 1e-7
	// Artificial is the artificial mass that proves infeasibility:
	// phase 1 ending with more than Artificial on the artificials, or a
	// warm basis with one artificial above it, is infeasible or
	// refused. Above Feas, so round-off on a feasible phase-1 optimum
	// is not read as infeasibility.
	Artificial = 1e-6
)

// Certificate is the optimality certificate's tolerance
// (internal/lp/lptest): primal rows and bounds hold within Certificate
// relative, duals have their signs to Certificate, and the duality gap
// closes to Certificate relative. Above Feas and Opt, so an answer the
// simplex accepts is certified.
const Certificate = 1e-7

// Factorizations (internal/linsolve) and the SMW corrector's guard.
const (
	// Singular is the least pivot magnitude an LU accepts, dense or
	// sparse; below it the matrix is singular.
	Singular = 1e-13
	// SMWCondition bounds the capacitance condition estimate (largest
	// entry over smallest pivot) of a Sherman–Morrison–Woodbury update;
	// beyond it the update is refused and the caller refactors cold.
	SMWCondition = 1e12
	// SMWResidual is the realization engine's guard on a corrected
	// solution (internal/routing): every updated row reproduces its
	// demand to SMWResidual relative to the row's scale, or the
	// scenario takes the cold path.
	SMWResidual = 1e-6
)

// The robust cut loop and the adversaries (internal/core).
const (
	// Cut is the robust-constraint violation above which the cut loop
	// adds a cut. Above Feas: the master meets each cut it holds to
	// Feas, so at the cut's own point the violation stays below Cut and
	// no cut is added twice.
	Cut = 1e-7
	// Support is the adversary weight above which a unit is in the
	// worst-case scenario's support.
	Support = 1e-6
	// Price is the reduced cost above which pricing enters a pool
	// column (a conditional LS) into the master. At least Opt: a column
	// that enters is one the master's simplex would pivot in, not one
	// at round-off.
	Price = 1e-9
)

// Ties between path lengths and scores.
const (
	// Tie is the improvement a Dijkstra label (internal/topology), a
	// widest-path width and a local-search score (internal/core) must
	// make to replace the incumbent; anything less is a tie and the
	// first found stays.
	Tie = 1e-15
	// TunnelTie is Tie for the tunnel search's Bellman-Ford labels
	// (internal/tunnels).
	TunnelTie = 1e-12
)

// Realization and its check (internal/routing).
const (
	// Carry is the flow, demand or coefficient at or below which a pair,
	// tunnel or logical sequence carries nothing and is skipped.
	Carry = 1e-12
	// PairUtil bounds one destination's utilization of a pair's live
	// reservation: outside [-PairUtil, 1+PairUtil] the scenario is
	// unrealizable.
	PairUtil = 1e-7
	// AggUtil bounds a pair's utilization summed over destinations
	// (Proposition 5): above 1+AggUtil it is unrealizable. At least
	// PairUtil, so a pair served for one destination within PairUtil
	// passes.
	AggUtil = 1e-6
	// Overload is the load above capacity that makes an arc overloaded:
	// load > capacity + Overload, decided in one place, routing's
	// overloaded. Above Feas, so an arc whose reservations the master
	// kept within capacity to Feas, used at utilization 1, is not.
	Overload = 1e-6
	// Balance is the miss in a node's net outflow, against its target,
	// that puts a destination out of balance. Far above Carry, so the
	// flows Carry drops cannot unbalance a node.
	Balance = 1e-6
	// RoundOff is float64's unit round-off, 2⁻⁵³: a correctly rounded
	// sum or product of x and y lies within RoundOff·|x∘y| of the real
	// one. A low-rank arc load — its base load plus what changed — lies
	// within a multiple of it of the dense loop's sum (DESIGN.md §12).
	// Far below Overload even times a million flows, so the two give an
	// arc the same verdict unless its load lies within about 1e-10 of
	// the verdict's edge.
	RoundOff = 0x1p-53
)

// Preparation and reporting (internal/mcf, internal/eval, cmd).
const (
	// MLULanding is how far outside its target band the MLU of a scaled
	// traffic matrix may land before scaling is an error.
	MLULanding = 1e-6
	// Denominator is the value at or below which a ratio's denominator
	// counts as zero.
	Denominator = 1e-12
	// Report is the value at or below which a printed quantity (a
	// reservation, an overhead) counts as zero.
	Report = 1e-9
)
