package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"pcf/internal/lp"
)

// Degradable reports whether a rung failure should drop to the next
// rung, and whether a solve failure counts toward tripping pcfd's
// circuit breaker: numerical breakdown or an exhausted iteration or
// cut budget, failure modes where retrying the same rung keeps burning
// the budget of every request. Infeasibility does not qualify — CLS is
// the most expressive scheme, so if it is infeasible every lower rung
// is too — and neither does a deadline, which only the overall Context
// sets and which indicts the request's budget, not the rung.
func Degradable(err error) bool {
	return errors.Is(err, lp.ErrNumerical) ||
		errors.Is(err, lp.ErrIterLimit) ||
		errors.Is(err, ErrCutLimit)
}

// stripConditional returns a copy of in with only the unconditional
// logical sequences, renumbered densely so Instance.Validate accepts
// the copy.
func stripConditional(in *Instance) *Instance {
	out := *in
	out.LSs = nil
	for _, q := range in.LSs {
		if q.Cond == nil {
			q.ID = LSID(len(out.LSs))
			out.LSs = append(out.LSs, q)
		}
	}
	return &out
}

// The names of the scheme table's rows. A name means one solver on one
// view of the prepared PCF-CLS instance at every entry point: pcfd's
// POST /v1/solve?scheme=, pcfplan -scheme and eval.Setup.Run.
const (
	SchemeFFC    = "FFC"
	SchemePCFTF  = "PCF-TF"
	SchemePCFLS  = "PCF-LS"
	SchemePCFCLS = "PCF-CLS"
	SchemeBest   = "best"
)

// rung is one solver on its view of the prepared instance: the kind of
// master it solves on, and whether it prices. CLS and LS solve the PCF
// master: the LS master with the instance's conditional LSs as the
// pool, which CLS prices in and LS leaves out. TF and FFC drop every
// sequence (their masters do), and FFC reserves on only the first
// Instance.FFCTunnels tunnels of each pair. Every master enters only the
// tunnels of its constraint pairs (master).
type rung struct {
	name   string
	master *masterKind
	price  bool
}

// masterKind is one kind of master; a Solver keeps one of each.
type masterKind struct {
	build func(*Instance) (*master, error)
}

var (
	pcfMaster = &masterKind{newPCFMaster}
	tfMaster  = &masterKind{newTFMaster}
	ffcMaster = &masterKind{newFFCMaster}

	rungCLS = &rung{SchemePCFCLS, pcfMaster, true}
	rungLS  = &rung{SchemePCFLS, pcfMaster, false}
	rungTF  = &rung{SchemePCFTF, tfMaster, false}
	rungFFC = &rung{SchemeFFC, ffcMaster, false}
)

// Scheme is one row of the scheme table: a name and its ladder of
// rungs, most expressive first. Only best has more than one rung: the
// PCF-CLS and FFC rows' own, on the PCF and FFC masters a Solver keeps
// for whichever rows solve them.
type Scheme struct {
	Name  string
	rungs []*rung
}

// schemes is the scheme table, the one place a scheme name is given a
// solver and an instance view.
var schemes = []*Scheme{
	{SchemeFFC, []*rung{rungFFC}},
	{SchemePCFTF, []*rung{rungTF}},
	{SchemePCFLS, []*rung{rungLS}},
	{SchemePCFCLS, []*rung{rungCLS}},
	{SchemeBest, []*rung{rungCLS, rungFFC}},
}

// LookupScheme returns the table row named name, ignoring case.
func LookupScheme(name string) (*Scheme, bool) {
	for _, s := range schemes {
		if strings.EqualFold(s.Name, name) {
			return s, true
		}
	}
	return nil, false
}

// SchemeNames lists the table's names in table order.
func SchemeNames() []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	return names
}

// Solve runs the row's ladder on the prepared instance in: it solves
// once on a new Solver and drops it, so every entry point solves a row
// by the one path a kept Solver takes. See Solver.Solve for the ladder.
func (s *Scheme) Solve(in *Instance, opts SolveOptions) (*Plan, error) {
	return NewSolver(in).Solve(s, opts)
}

// Solver solves any row of the scheme table on one instance, any
// number of times, and keeps one master per kind between solves —
// three at most: PCF (shared by PCF-LS and PCF-CLS), PCF-TF and FFC. A
// master is built (model, adversaries, seed cuts, compiled form,
// workspace) on the first solve of any rung on it, and every later
// solve, by that row or another whose ladder holds a rung on it,
// re-runs only the cut loop on it. Plans equal a one-shot solve's bit
// for bit (master). Solves on one Solver take turns: each holds the
// Solver for its whole ladder.
type Solver struct {
	in      *Instance
	mu      sync.Mutex
	masters map[*masterKind]*master
}

// NewSolver returns a solver on the prepared instance in. It builds
// nothing until a rung is first solved.
func NewSolver(in *Instance) *Solver {
	return &Solver{in: in, masters: map[*masterKind]*master{}}
}

// Solve runs row's ladder from its top. A rung is abandoned — and
// recorded in Plan.Degraded — when it breaks down numerically or
// exhausts an iteration or cut budget; any other failure, and
// cancellation of the overall Context, aborts the ladder immediately.
// A PCF-CLS rung whose pricing breaks down that way serves the LS
// iterate it holds instead (master.solve): a PCF-LS plan with PCF-CLS
// recorded as abandoned. Every rung optimizes the same congestion-free
// model family, so a downgrade weakens optimality, never the proved
// guarantee of the plan that is returned.
func (sv *Solver) Solve(row *Scheme, opts SolveOptions) (*Plan, error) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	var degraded []string
	var firstErr error
	for _, r := range row.rungs {
		if err := opts.ctxErr(); err != nil {
			return nil, fmt.Errorf("core: %s canceled before %s: %w", row.Name, r.name, err)
		}
		plan, err := sv.solve(r, opts)
		if err == nil {
			plan.Degraded = append(degraded, plan.Degraded...)
			return plan, nil
		}
		// A degradable failure under a context that has since expired
		// still aborts: retrying lower rungs would just burn the caller.
		if !Degradable(err) || opts.ctxErr() != nil {
			return nil, fmt.Errorf("core: %s %s: %w", row.Name, r.name, err)
		}
		degraded = append(degraded, r.name)
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("core: %s exhausted all rungs (%v): %w", row.Name, degraded, firstErr)
}

// solve solves rung r on its kept master, building it first if no
// solve has; a build that fails keeps nothing.
func (sv *Solver) solve(r *rung, opts SolveOptions) (*Plan, error) {
	m := sv.masters[r.master]
	if m == nil {
		var err error
		if m, err = r.master.build(sv.in); err != nil {
			return nil, err
		}
		sv.masters[r.master] = m
	}
	return m.solve(opts, r.price)
}

// SolveBest runs the best row's ladder: PCF-CLS (its LS iterate when
// pricing breaks down), then FFC.
func SolveBest(in *Instance, opts SolveOptions) (*Plan, error) {
	best, _ := LookupScheme(SchemeBest)
	return best.Solve(in, opts)
}
