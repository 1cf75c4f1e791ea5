// Package checkederr exercises the checkederr analyzer: errors from
// Solve*/Realize* must be handled, never dropped. Sweep.Check, the
// other protected callee, is resolved by type (the internal/routing
// fixture).
package checkederr

type result struct{ ok bool }

func SolveMain() error             { return nil }
func RealizePlan() (result, error) { return result{}, nil }

// resolveHelper is not protected: lowercase "solve" inside the name
// only counts for functions defined in an internal/lp package.
func resolveHelper() error { return nil }

var (
	keep error
	got  result
)

func drops() {
	SolveMain()            // want "error from SolveMain is discarded"
	go SolveMain()         // want "discarded by go statement"
	defer SolveMain()      // want "discarded by defer"
	_ = SolveMain()        // want "error from SolveMain assigned to _"
	got, _ = RealizePlan() // want "error from RealizePlan assigned to _"
	resolveHelper()        // unprotected callee: allowed
}

func handles() {
	keep = SolveMain()
	r, err := RealizePlan()
	if err != nil {
		keep = err
	}
	got = r
}
