package core

import "time"

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
