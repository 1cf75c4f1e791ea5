package core

// SolveFullPool solves PCF-CLS on a master that holds every LS of in
// from the start, no pricing: the referee the priced master is held to.
func SolveFullPool(in *Instance, opts SolveOptions) (*Plan, error) {
	ms, err := newFullPoolMaster(in)
	if err != nil {
		return nil, err
	}
	return ms.solve(opts, true)
}

func newFullPoolMaster(in *Instance) (*master, error) {
	return newMaster(in, SchemePCFCLS, buildPCFAdversary, 0, false, false)
}
