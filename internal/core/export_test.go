package core

import (
	"time"

	"pcf/internal/lp"
)

// SolveFullPool solves PCF-CLS on a master that holds every LS of in
// from the start, no pricing: the referee the priced master is held to.
func SolveFullPool(in *Instance, opts SolveOptions) (*Plan, error) {
	ms, err := unpooledMaster(in, SchemePCFCLS, buildPCFAdversary, 0, false)
	if err != nil {
		return nil, err
	}
	return ms.solve(opts, true)
}

// unpooledMaster builds scheme's master on in as newMaster does, but
// with every LS of in in the model and no pool, recording every cut
// row when keep is set.
func unpooledMaster(in *Instance, scheme string, build advBuilder, perPair int, keep bool) (*master, error) {
	start := time.Now()
	demand, pairs, err := in.validated()
	if err != nil {
		return nil, err
	}
	m, mv, capRow := buildMaster(in, in.LSs, demand, pairs, perPair)
	ms := &master{scheme: scheme, in: in, lsIn: in, demand: demand, mv: mv, capRow: capRow}
	specs := buildSpecs(in, mv, build)
	if keep {
		ms.pool.terms = make([][]poolTerm, len(specs))
	}
	return ms, ms.seal(m, specs, start)
}

// SeedRows builds the PCF-TF master on in, or the PCF master with its
// pool when in has a conditional LS, and returns each spec's seed cuts
// as the terms of their rows over the master's columns (pool variables
// as template variables), with the number of seed cuts seal added.
func SeedRows(in *Instance) ([][][]lp.Term, int, error) {
	build := newTFMaster
	if hasConditional(in) {
		build = newPCFMaster
	}
	ms, err := build(in)
	if err != nil {
		return nil, 0, err
	}
	if ms.lsIn != in {
		if err := ms.buildPool(); err != nil {
			return nil, 0, err
		}
	}
	rows := make([][][]lp.Term, len(ms.specs))
	for i, spec := range ms.specs {
		pts, err := spec.seedPoints()
		if err != nil {
			return nil, 0, err
		}
		for _, w := range pts {
			rows[i] = append(rows[i], spec.cutExpr(w).Terms)
		}
	}
	return rows, ms.seeds, nil
}
