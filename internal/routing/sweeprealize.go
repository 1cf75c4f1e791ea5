package routing

// The scenario hot path: mark rows → row deltas → corrector (built in
// the scratch when the updates couple no rows, else looked up by
// signature) → correct + residual guard → emit (sweepemit.go), and the one
// cold path beside it: the scenario's own rows, factored afresh, then
// the same emission. Every stage reads the shared Sweep and writes only
// the caller's scratch.

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"

	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/tol"
	"pcf/internal/tunnels"
)

// sweepScratch is per-worker mutable state, so the read-only Sweep can
// be shared across goroutines without locks.
type sweepScratch struct {
	epoch    int32
	flip     []int32 // epoch stamps per universe row: its membership is not the base's
	rowMark  []int32 // epoch stamps per universe row: the scenario changes its coefficients
	deadTun  []int32 // epoch stamps per tunnel ID
	destMark []int32 // epoch stamps per destination: the scenario can change it
	lsActive []bool
	rowVals  []float64
	touched  []int // columns of the row rowCoeffs last built, ascending
	x, xt    []float64

	// stamp is a per-row mark under its own counter, which each use
	// advances (nextStamp): rowCoeffs marks the columns of the row it
	// builds, checkU and the emission walk the rows they have listed.
	stamp      []int32
	stampEpoch int32

	// The rows the scenario marks (rowMark), in marking order until
	// changedRows sorts them, and the rows whose membership flips, as
	// activate lists them. When an LS flips, activate closes the seeds
	// afresh: reach lists the rows the closure reached, reached flags
	// them (all false between calls; allocated on the first flip).
	rows    []int
	flips   []int
	reach   []int
	reached []bool

	// The rows a destination's correction writes outside its base
	// support (emitDests), and the rows the range check and the
	// emission walked for the scenario last served.
	extra     []int32
	rowVisits int
	// k-sized SMW correction scratch (grown on demand), so shared
	// batched correctors stay read-only across workers; the workspace a
	// missed corrector's capacitance is factored in, and the inverse
	// columns it is built from; the corrector of a decoupled update set
	// (corrector), valid until the worker's next scenario, and the
	// inverse diagonals it is built from.
	smwZ, smwY []float64
	capWork    linsolve.UpdateFactorizer
	invCols    []linsolve.SparseColumn
	diag       linsolve.Updated
	invDiag    []float64
	sys        *sysScratch // see system

	// The pair verdict of the scenario last served, when it had one.
	verdict scratchVerdict

	// The scenario's row updates (rowUpdates) — the list, the residual
	// guard's scale per update, and one arena each for their columns
	// and values, upEnd[j] ending update j's share — and their
	// signature (upsKey). A corrector that keeps updates copies them.
	ups     []linsolve.RowUpdate
	upScale []float64
	upCols  []int
	upVals  []float64
	upEnd   []int
	key     []byte

	// The flat emission of the scenario last served (sweepemit.go): the
	// aggregate solution, pair count and largest utilization, the flows
	// of the destinations emitted afresh as one (tunnel, flow) arena with
	// an offset per destination — a replayed destination's flows are the
	// engine's record — and the arc loads, which equal the record's base
	// loads except on the arcs listed in changed. arcFlows is -1 on
	// every other arc, and on those the number of flows that cross the
	// arc (0 on every arc of a dense emission, which lists them all).
	sol      []float64
	inCount  int
	maxU     float64
	flowOff  []int32
	flowTun  []tunnels.ID
	flowVal  []float64
	arcLoad  []float64
	arcFlows []int32
	changed  []int32

	// The check's state (sweepcheck.go): the capacity array the
	// scenario's dead and degraded links are overlaid on and restored
	// from, the arcs overlaid, the node balance, and how many arcs the
	// last check visited.
	arcCap    []float64
	overlaid  []int32
	bal       balance
	arcChecks int

	// The class keys a scenario is looked up in the engine's kept
	// designed pass by (Sweep.kept), made on the worker's first lookup.
	keys *classKeys
}

// sysScratch is the part of a worker's scratch that lays out and solves
// a scenario's whole system — the base build, the cold path and the
// inverse-column solves (invCol) use it.
type sysScratch struct {
	ptr   []int // row r is ents[ptr[r]:ptr[r+1]]
	ents  []linsolve.SparseEntry
	fact  linsolve.SparseFactorizer // its factors stay until the next Factor
	dt, w []float64                 // a destination's right-hand side; solve workspace
}

// system returns sr's whole-system scratch, allocated on the worker's
// first cold solve or first inverse-column solve (invCol).
func (sr *sweepScratch) system() *sysScratch {
	if sr.sys == nil {
		n := len(sr.x)
		sr.sys = &sysScratch{dt: make([]float64, n), w: make([]float64, n)}
	}
	return sr.sys
}

// newScratch returns a worker's scratch holding the engine's base arc
// loads (zero before the record exists).
func (s *Sweep) newScratch() *sweepScratch {
	g := s.plan.Instance.Graph
	sr := &sweepScratch{
		flip:     make([]int32, s.n),
		rowMark:  make([]int32, s.n),
		stamp:    make([]int32, s.n),
		deadTun:  make([]int32, s.numTun),
		destMark: make([]int32, len(s.dests)),
		lsActive: make([]bool, len(s.ls)),
		rowVals:  make([]float64, s.n),
		rows:     make([]int, 0, s.n),
		touched:  make([]int, 0, 16),
		x:        make([]float64, s.n),
		xt:       make([]float64, s.n),
		flowOff:  make([]int32, len(s.dests)+1),
		arcLoad:  make([]float64, g.NumArcs()),
		arcFlows: make([]int32, g.NumArcs()),
		arcCap:   append([]float64(nil), s.arcCap...),
		bal:      newBalance(g.NumNodes()),
	}
	for a := range sr.arcFlows {
		sr.arcLoad[a], sr.arcFlows[a] = s.baseLoad(int32(a)), -1
	}
	return sr
}

// realize serves one scenario, leaving its flat emission in sr, and
// reports how: through the low-rank path, or through the cold path when
// the engine has no base, no corrector could be built or the residual
// guard trips. Its error is the caller's to keep.
func (s *Sweep) realize(sc failures.Scenario, sr *sweepScratch) (served, error) {
	sv, err := s.realizeSlot(sc, sr)
	return sv, detach(err)
}

// realizeSlot is realize for a sweep, which keeps a scenario's outcome
// in its slot: a pair of interest with no live reservation or a
// utilization out of range is reported as the pair verdict sr holds
// (scratchVerdict), its error unbuilt.
func (s *Sweep) realizeSlot(sc failures.Scenario, sr *sweepScratch) (served, error) {
	sr.rowVisits = 0
	if s.n == 0 {
		sr.sol, sr.inCount, sr.maxU = nil, 0, 0
		return s.emitDests(sc, sr, nil, nil)
	}
	sr.inCount = s.activate(sc, sr)
	if s.slu == nil {
		return s.cold(sc, sr, causeNoBase)
	}
	rows := s.changedRows(sr)
	ups, upScale, err := s.rowUpdates(sc, sr, rows)
	if err != nil {
		return served{}, err
	}
	k := len(ups)
	sr.sol = s.uBase
	var upd *linsolve.Updated
	hit := false
	if k > 0 {
		if upd, hit = s.corrector(sr, ups); upd == nil {
			return s.cold(sc, sr, causeSingular)
		}
		if cap(sr.smwZ) < k {
			sr.smwZ = make([]float64, k)
			sr.smwY = make([]float64, k)
		}
		if err := upd.CorrectIntoScratch(sr.x, s.uBase, sr.smwZ[:k], sr.smwY[:k]); err != nil {
			return served{}, fmt.Errorf("routing: aggregate system under %v: %w", sc, err)
		}
		if !s.residualOK(sr.x, ups, upScale) {
			return s.cold(sc, sr, causeResidual)
		}
		sr.sol = sr.x
	}
	if err := s.checkU(sc, sr, upd, true); err != nil {
		return served{}, err
	}
	s.markAffected(sr, rows, ups)
	sv, err := s.emitDests(sc, sr, upd, nil)
	sv.batchHit, sv.rowVisits = hit, sr.rowVisits
	return sv, err
}

// cold is the one fallback, and all a cold-only engine does: the
// activated scenario's own rows, factored afresh, solved for the
// aggregate and every destination, then range-checked and emitted as a
// low-rank scenario is, every destination affected.
func (s *Sweep) cold(sc failures.Scenario, sr *sweepScratch, why fallbackCause) (served, error) {
	if err := s.scenarioRows(sc, sr); err != nil {
		return served{}, err
	}
	sys := sr.sys
	lu, err := sys.fact.Factor(s.n, sys.ptr, sys.ents)
	if err != nil {
		return served{}, unrealizable{fmt.Errorf("%w under %v: %w", ErrSingularMatrix, sc, err)}
	}
	if err := lu.SolveIntoScratch(sr.x, s.demand, sys.w); err != nil {
		return served{}, fmt.Errorf("routing: aggregate system under %v: %w", sc, err)
	}
	sr.sol = sr.x
	if err := s.checkU(sc, sr, nil, false); err != nil {
		return served{}, err
	}
	for di := range sr.destMark {
		sr.destMark[di] = sr.epoch
	}
	_, err = s.emitDests(sc, sr, nil, lu)
	return served{cause: why}, err
}

// activate stamps the scenario's state into the scratch under a fresh
// epoch — dead tunnels, LS activity, and the pairs of interest —
// marking along the way the rows whose coefficients a dead tunnel or an
// LS activity flip changes. It returns the number of pairs of interest.
// Only an LS flip can change membership: without one the pairs of
// interest are the base's and nothing is walked for them; with one the
// seeds are closed afresh through the active LSs and every row whose
// membership differs from the base's is stamped in flip and listed in
// flips.
func (s *Sweep) activate(sc failures.Scenario, sr *sweepScratch) int {
	sr.epoch++
	ep := sr.epoch
	sr.rows, sr.flips = sr.rows[:0], sr.flips[:0]
	links := len(s.linkTuns.off) - 1
	for l, dead := range sc.Dead {
		if !dead || l < 0 || int(l) >= links {
			continue
		}
		for _, tid := range s.linkTuns.at(int(l)) {
			if sr.deadTun[tid] == ep {
				continue
			}
			sr.deadTun[tid] = ep
			if r := s.tunRow[tid]; r >= 0 && s.tunRes[tid] > 0 {
				sr.mark(r)
			}
		}
	}
	flipped := false
	for qi := range s.ls {
		e := &s.ls[qi]
		act := e.cond.Holds(sc)
		sr.lsActive[qi] = act
		if act == e.baseActive {
			continue
		}
		flipped = true
		if e.pairRow >= 0 {
			sr.mark(e.pairRow)
		}
		for _, r := range e.segRows {
			sr.mark(r)
		}
	}
	if !flipped {
		return s.baseCount
	}
	if sr.reached == nil {
		sr.reached = make([]bool, s.n)
	}
	sr.reach = s.closure(sr.reach[:0], sr.reached, sr.lsActive)
	for _, r := range sr.reach {
		if !s.baseInSet[r] {
			sr.flip[r] = ep
			sr.flips = append(sr.flips, r)
		}
	}
	for r, in := range s.baseInSet {
		if in && !sr.reached[r] {
			sr.flip[r] = ep
			sr.flips = append(sr.flips, r)
		}
	}
	for _, r := range sr.reach {
		sr.reached[r] = false
	}
	return len(sr.reach)
}

// closure appends to reach every row the seeds reach through the LSs
// active flags — the pairs of interest — setting in[r] as it reaches
// r, and returns it. in must be all false on entry.
func (s *Sweep) closure(reach []int, in, active []bool) []int {
	for _, r := range s.seeds {
		if !in[r] {
			in[r] = true
			reach = append(reach, r)
		}
	}
	for i := 0; i < len(reach); i++ {
		for _, qi := range s.localLS[reach[i]] {
			if !active[qi] {
				continue
			}
			for _, sg := range s.ls[qi].segRows {
				if !in[sg] {
					in[sg] = true
					reach = append(reach, sg)
				}
			}
		}
	}
	return reach
}

// in reports whether universe row r is a pair of interest under the
// activated scenario: a base pair of interest unless the scenario
// flips it, and the other way round.
func (s *Sweep) in(sr *sweepScratch, r int) bool {
	return s.baseInSet[r] != (sr.flip[r] == sr.epoch)
}

// mark stamps row r as one whose coefficients the activated scenario
// changes, and lists it the first time.
func (sr *sweepScratch) mark(r int) {
	if sr.rowMark[r] != sr.epoch {
		sr.rowMark[r] = sr.epoch
		sr.rows = append(sr.rows, r)
	}
}

// nextStamp advances the per-row stamp counter and returns it: every
// row's stamp then differs from it.
func (sr *sweepScratch) nextStamp() int32 {
	sr.stampEpoch++
	return sr.stampEpoch
}

// changedRows completes the marking with the rows a membership flip
// touches and returns every marked row, ascending: the list the marking
// made, sorted.
func (s *Sweep) changedRows(sr *sweepScratch) []int {
	for _, r := range sr.flips {
		sr.mark(r)
		// Entries of LSs local to r sit in r's column of their segment
		// rows, gated on r's membership: those rows change too.
		for _, qi := range s.localLS[r] {
			e := &s.ls[qi]
			if !sr.lsActive[qi] && !e.baseActive {
				continue
			}
			for _, sg := range e.segRows {
				sr.mark(sg)
			}
		}
	}
	// A short list sorts for less than a pass over every row costs; a
	// long one is read back off the stamps instead.
	if m := len(sr.rows); m*bits.Len(uint(m)) <= s.n {
		slices.Sort(sr.rows)
	} else {
		sr.rows = sr.rows[:0]
		for r := range s.n {
			if sr.rowMark[r] == sr.epoch {
				sr.rows = append(sr.rows, r)
			}
		}
	}
	return sr.rows
}

// rowCoeffs builds row r of the reservation matrix under the activated
// scenario into sr.rowVals, listing its columns ascending in
// sr.touched, and returns the row's live reservation (0 for a pair
// outside the set, whose row is the identity). The summation order is
// fixed — live tunnels, active local LSs, then through-LSs in index
// order — so equal inputs always give bit-equal coefficients.
func (s *Sweep) rowCoeffs(sr *sweepScratch, r int) float64 {
	ce := sr.nextStamp()
	sr.touched = sr.touched[:0]
	touch := func(c int, v float64) {
		if sr.stamp[c] != ce {
			sr.stamp[c] = ce
			sr.rowVals[c] = 0
			sr.touched = append(sr.touched, c)
		}
		sr.rowVals[c] += v
	}
	if !s.in(sr, r) {
		touch(r, 1)
		return 0
	}
	diag := s.liveRes(sr, r)
	touch(r, diag)
	for _, qi := range s.throughLS[r] {
		e := &s.ls[qi]
		if sr.lsActive[qi] && e.pairRow >= 0 && s.in(sr, e.pairRow) {
			touch(e.pairRow, -e.res)
		}
	}
	sort.Ints(sr.touched)
	return diag
}

// liveRes is row r's live reservation under the activated scenario:
// its live tunnels' reservations, then its active local LSs', summed in
// that order.
func (s *Sweep) liveRes(sr *sweepScratch, r int) float64 {
	total := 0.0
	for _, tid := range s.pairTun[r] {
		if sr.deadTun[tid] != sr.epoch {
			total += s.tunRes[tid]
		}
	}
	for _, qi := range s.localLS[r] {
		if sr.lsActive[qi] {
			total += s.ls[qi].res
		}
	}
	return total
}

// liveCoeffs is rowCoeffs where the row must be solvable: a pair of
// interest with no live reservation is the scenario's error, a pair
// verdict in sr (scratchVerdict).
func (s *Sweep) liveCoeffs(sc failures.Scenario, sr *sweepScratch, r int) (float64, error) {
	diag := s.rowCoeffs(sr, r)
	if diag <= tol.Carry && s.in(sr, r) {
		sr.verdict = scratchVerdict{pairVerdict{p: s.pairs[r], noLive: true}, sc}
		return 0, &sr.verdict
	}
	return diag, nil
}

// scenarioRows lays out the activated scenario's reservation matrix in
// sr's whole-system scratch: every universe row as rowCoeffs builds it,
// ascending columns and no stored zeros, the identity outside the set.
func (s *Sweep) scenarioRows(sc failures.Scenario, sr *sweepScratch) error {
	sys := sr.system()
	sys.ptr, sys.ents = append(sys.ptr[:0], 0), sys.ents[:0]
	for r := 0; r < s.n; r++ {
		if _, err := s.liveCoeffs(sc, sr, r); err != nil {
			return err
		}
		for _, c := range sr.touched {
			if v := sr.rowVals[c]; v != 0 {
				sys.ents = append(sys.ents, linsolve.SparseEntry{Col: c, Val: v})
			}
		}
		sys.ptr = append(sys.ptr, len(sys.ents))
	}
	return nil
}

// rowViews slices a row arena into one view per row.
func rowViews(ptr []int, ents []linsolve.SparseEntry) [][]linsolve.SparseEntry {
	rows := make([][]linsolve.SparseEntry, len(ptr)-1)
	for r := range rows {
		rows[r] = ents[ptr[r]:ptr[r+1]:ptr[r+1]]
	}
	return rows
}

// rowUpdates turns the candidate rows into the scenario's sparse row
// deltas against the base matrix, with the per-row scale the residual
// guard measures against. Rows that recompute to their base values
// drop out. Both lists, and the updates' columns and values, are sr's
// arenas, valid until its next call.
func (s *Sweep) rowUpdates(sc failures.Scenario, sr *sweepScratch, rows []int) ([]linsolve.RowUpdate, []float64, error) {
	sr.ups, sr.upScale, sr.upEnd = sr.ups[:0], sr.upScale[:0], sr.upEnd[:0]
	sr.upCols, sr.upVals = sr.upCols[:0], sr.upVals[:0]
	emit := func(c int, d float64) {
		if d != 0 {
			sr.upCols = append(sr.upCols, c)
			sr.upVals = append(sr.upVals, d)
		}
	}
	for _, r := range rows {
		diag, err := s.liveCoeffs(sc, sr, r)
		if err != nil {
			return nil, nil, err
		}
		// Merge the row's columns with the base row's entries, ascending
		// — every other column is zero in both.
		lo := len(sr.upCols)
		base := s.baseRows[r]
		bi := 0
		for _, c := range sr.touched {
			for ; bi < len(base) && base[bi].Col < c; bi++ {
				emit(base[bi].Col, -base[bi].Val)
			}
			b := 0.0
			if bi < len(base) && base[bi].Col == c {
				b = base[bi].Val
				bi++
			}
			emit(c, sr.rowVals[c]-b)
		}
		for ; bi < len(base); bi++ {
			emit(base[bi].Col, -base[bi].Val)
		}
		if len(sr.upCols) > lo {
			sr.ups = append(sr.ups, linsolve.RowUpdate{Row: r})
			sr.upScale = append(sr.upScale, 1+diag)
			sr.upEnd = append(sr.upEnd, len(sr.upCols))
		}
	}
	// The arenas have stopped growing: slice each update's share.
	lo := 0
	for j, hi := range sr.upEnd {
		sr.ups[j].Cols, sr.ups[j].Vals = sr.upCols[lo:hi:hi], sr.upVals[lo:hi:hi]
		lo = hi
	}
	return sr.ups, sr.upScale, nil
}

// upsKey appends to b the byte signature that batches SMW corrections:
// scenarios whose failed links produce the same rows, columns, and
// bit-identical delta values share one capacitance factorization. The
// signature is built from dead links only, and deliberately so:
// degradation (Scenario.Degraded) scales capacities but never touches
// the reservation matrix, so scenarios differing only in degraded links
// share the same linear system — and the same batch entry. Capacity
// effects apply downstream, where the check divides by the scenario's
// capacities (overlay).
func upsKey(b []byte, ups []linsolve.RowUpdate) []byte {
	for _, up := range ups {
		b = binary.AppendUvarint(b, uint64(up.Row))
		b = binary.AppendUvarint(b, uint64(len(up.Cols)))
		for t, c := range up.Cols {
			b = binary.AppendUvarint(b, uint64(c))
			b = binary.AppendUvarint(b, math.Float64bits(up.Vals[t]))
		}
	}
	return b
}

// corrector returns the SMW corrector for a set of row updates and
// whether it came out of the signature cache; nil sends the scenario
// cold. Updates that couple no rows (decoupled) have a diagonal
// capacitance, and their corrector is built in sr's own (sr.diag) in
// O(k), allocating nothing and consulting no cache: it serves this
// scenario only, and nothing keeps it past the scenario. Any other
// update set goes to the signature cache, where scenarios with the same
// signature share one capacitance factorization, and a failed
// construction is memoized like a successful one. The cache is keyed
// by a hash of the signature, which is built in sr and compared against
// the entry's own copy, so a hit allocates nothing; a miss factors the
// capacitance in sr's workspace and keeps, in its entry, the signature
// and a corrector holding only its nonzeros — the updates, the factors
// and the inverse columns are copied in (a hash shared by two
// signatures serves the second uncached). A fork looks in its parent's
// cache first, then in its own, and keeps what it builds in its own
// (correctors.keep).
func (s *Sweep) corrector(sr *sweepScratch, ups []linsolve.RowUpdate) (*linsolve.Updated, bool) {
	if hook := SweepUpdateFault; hook != nil && hook(ups) != nil {
		return nil, false
	}
	if s.decoupled(sr, ups) {
		if sr.diag.SetDiagonal(s.n, ups, sr.invDiag) != nil {
			return nil, false
		}
		return &sr.diag, false
	}
	sr.key = upsKey(sr.key[:0], ups)
	h := maphash.Bytes(s.keySeed, sr.key)
	if upd, ok := s.parent.load(h, sr.key); ok {
		return upd, true
	}
	if upd, ok := s.cors.load(h, sr.key); ok {
		return upd, true
	}
	be := &batchEntry{key: string(sr.key)}
	sr.invCols = sr.invCols[:0]
	for _, up := range ups {
		col, err := s.invCol(sr, up.Row)
		if err != nil {
			be.err = err
			break
		}
		sr.invCols = append(sr.invCols, col)
	}
	if be.err == nil {
		be.upd, be.err = sr.capWork.FactorSparse(s.n, ups, sr.invCols)
	}
	return s.cors.keep(h, be), false
}

// decoupled reports whether the updates couple no rows: each changes
// only its own row's diagonal, and that row's base inverse column is
// that row alone. It lists those inverse diagonals in sr.invDiag. A
// column it cannot solve leaves the set to the cache path, which
// memoizes the failure.
func (s *Sweep) decoupled(sr *sweepScratch, ups []linsolve.RowUpdate) bool {
	for _, up := range ups {
		if len(up.Cols) != 1 || up.Cols[0] != up.Row {
			return false
		}
	}
	sr.invDiag = sr.invDiag[:0]
	for _, up := range ups {
		col, err := s.invCol(sr, up.Row)
		if err != nil || len(col.Row) != 1 || int(col.Row[0]) != up.Row {
			return false
		}
		sr.invDiag = append(sr.invDiag, col.Val[0])
	}
	return true
}

// invCol returns the nonzeros of column r of the base inverse, solved
// on first use through sr's whole-system scratch and memoized in r's
// slot, so only the rows scenarios actually touch are ever solved and
// each keeps only its nonzeros. Racing workers may each solve a column;
// the solve is deterministic, so whichever copy is kept is the same.
func (s *Sweep) invCol(sr *sweepScratch, r int) (linsolve.SparseColumn, error) {
	if col := s.invCols[r].Load(); col != nil {
		return *col, nil
	}
	sys := sr.system()
	e, x := sys.dt, sr.xt // xt: no destination is being emitted yet
	clear(e)
	e[r] = 1
	if err := s.slu.SolveIntoScratch(x, e, sys.w); err != nil {
		return linsolve.SparseColumn{}, err
	}
	nz := 0
	for _, v := range x {
		if v != 0 {
			nz++
		}
	}
	col := &linsolve.SparseColumn{Row: make([]int32, 0, nz), Val: make([]float64, 0, nz)}
	for i, v := range x {
		if v != 0 {
			col.Row, col.Val = append(col.Row, int32(i)), append(col.Val, v)
		}
	}
	if !s.invCols[r].CompareAndSwap(nil, col) {
		col = s.invCols[r].Load()
	}
	return *col, nil
}

// residualOK is the guard on the corrected aggregate solution: every
// updated row of the scenario's system must reproduce its demand to
// tol.SMWResidual of the row's scale. If the rank-k identity lost accuracy, the
// caller takes the cold path rather than return drift.
func (s *Sweep) residualOK(x []float64, ups []linsolve.RowUpdate, upScale []float64) bool {
	for j, up := range ups {
		acc := -s.demand[up.Row]
		for _, e := range s.baseRows[up.Row] {
			acc += e.Val * x[e.Col]
		}
		for t, c := range up.Cols {
			acc += up.Vals[t] * x[c]
		}
		if math.Abs(acc) > tol.SMWResidual*upScale[j] {
			return false
		}
	}
	return true
}
