package linsolve

import (
	"fmt"
	"math"
	"slices"

	"pcf/internal/tol"
)

// SparseEntry is one nonzero of a sparse row: value Val in column Col.
type SparseEntry struct {
	Col int
	Val float64
}

// luEntry is one stored factor nonzero. For L columns Idx is the
// original row index of the multiplier; for U rows Idx is the original
// column index of the value.
type luEntry struct {
	Idx int
	Val float64
}

// markowitzTau is the threshold-pivoting stability guard: a candidate
// pivot must be at least tau times the largest magnitude in its row.
// 0.1 is the classic compromise between sparsity (small tau admits the
// fill-minimizing pivot) and growth control (large tau approaches
// partial pivoting).
const markowitzTau = 0.1

// markowitzCand bounds how many shortest active rows are examined per
// elimination step. A handful suffices: Markowitz cost within the
// shortest rows is a near-optimal local fill heuristic, and a larger
// pool only slows factorization without measurably less fill.
const markowitzCand = 8

// SparseLU is a sparse LU factorization with Markowitz pivoting:
// P·A·Q = L·U where P, Q are the row and column permutations the pivot
// order induces. Pivots minimize the Markowitz fill count
// (r_i−1)(c_j−1) among a pool of shortest active rows, subject to a
// threshold stability guard, so factors of the sparse bases arising
// from network LPs and reservation matrices stay near the input's
// nonzero count instead of densifying to n².
//
// Solves against the stored factors take caller-owned scratch and are
// safe for concurrent use on one SparseLU.
type SparseLU struct {
	n       int
	rowPerm []int     // rowPerm[k] = original row eliminated at step k
	colPerm []int     // colPerm[k] = original column eliminated at step k
	rowPos  []int     // inverse of rowPerm
	colPos  []int     // inverse of colPerm
	piv     []float64 // pivot value per step

	// The factors, one flat arena each, step k's part delimited by the
	// matching offsets (lcol[lptr[k]:lptr[k+1]], ...).
	lcol             []luEntry // L columns: (original row, multiplier)
	urow             []luEntry // U rows: (original col, value), pivot excluded
	ucol             []luEntry // U columns by step position: (step, value), for transpose solves
	lptr, uptr, cptr []int
}

// SparseFactorizer is the factorization workspace: the active
// submatrix, its bucket and column indexes, and the factors it
// produces all live in flat arenas that Factor refills, so a caller
// that refactorizes repeatedly (the simplex) allocates nothing once
// the arenas have grown to the problem's size. Not safe for concurrent
// use. The zero value is ready.
type SparseFactorizer struct {
	lu SparseLU

	// Active submatrix: un-eliminated row i's entries restricted to
	// un-eliminated columns are ent[start[i]:start[i]+length[i]], with
	// room to grow in place up to room[i] entries. A row that outgrows
	// its room moves to the arena's end; the hole stays until the next
	// Factor.
	ent                 []SparseEntry
	start, length, room []int
	rowDone             []bool
	colCount            []int    // active rows containing each column
	colRows             intLists // candidate rows per column (stale ones skipped)
	// Rows bucketed by active length for cheap shortest-row lookup.
	// Nodes go stale when a row's length changes or it is eliminated;
	// stale nodes are unlinked when a scan meets them.
	buckets intLists

	// Row-combination scratch: pos[col] is the entry index of col in
	// the row being updated, valid when mark[col] == epoch.
	pos, mark []int
}

// intLists is a family of append-only int lists sharing one node
// arena; order within a list is insertion order.
type intLists struct {
	head, tail []int // first and last node per list, -1 when empty
	nodes      []listNode
}

type listNode struct{ val, next int }

func (l *intLists) reset(lists int) {
	l.head, l.tail = resize(l.head, lists), resize(l.tail, lists)
	for i := range l.head {
		l.head[i], l.tail[i] = -1, -1
	}
	l.nodes = l.nodes[:0]
}

func (l *intLists) push(list, v int) {
	nd := len(l.nodes)
	l.nodes = append(l.nodes, listNode{val: v, next: -1})
	if t := l.tail[list]; t >= 0 {
		l.nodes[t].next = nd
	} else {
		l.head[list] = nd
	}
	l.tail[list] = nd
}

// unlink removes node nd, whose predecessor in the list is prev (-1 at
// the head).
func (l *intLists) unlink(list, prev, nd int) {
	if prev < 0 {
		l.head[list] = l.nodes[nd].next
	} else {
		l.nodes[prev].next = l.nodes[nd].next
	}
	if l.tail[list] == nd {
		l.tail[list] = prev
	}
}

// resize returns s with length n and every element zero, reusing its
// backing array when that is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// FactorSparseRows factors the n×n matrix given as sparse rows. Each
// row's entries must have in-range column indices; duplicate columns
// within a row are summed. The input is not retained. It is the
// one-shot form of SparseFactorizer.Factor.
func FactorSparseRows(rows [][]SparseEntry, n int) (*SparseLU, error) {
	if len(rows) != n {
		return nil, fmt.Errorf("linsolve: %d sparse rows for n=%d", len(rows), n)
	}
	var w SparseFactorizer
	ptr, ents := flattenRows(rows)
	lu, err := w.Factor(n, ptr, ents)
	if err != nil {
		return nil, err
	}
	out := *lu // detach the factors so the rest of the workspace is freed
	return &out, nil
}

// flattenRows lays sparse rows out the way Factor takes them.
func flattenRows(rows [][]SparseEntry) (ptr []int, ents []SparseEntry) {
	ptr = make([]int, len(rows)+1)
	for i, row := range rows {
		ptr[i+1] = ptr[i] + len(row)
	}
	ents = make([]SparseEntry, 0, ptr[len(rows)])
	for _, row := range rows {
		ents = append(ents, row...)
	}
	return ptr, ents
}

// row returns active row i, appendable in place up to its room.
func (w *SparseFactorizer) row(i int) []SparseEntry {
	s := w.start[i]
	return w.ent[s : s+w.length[i] : s+w.room[i]]
}

// Factor factors the n×n matrix whose row i is ents[ptr[i]:ptr[i+1]]
// (same contract as FactorSparseRows). The returned factors live in
// the workspace: the next Factor call overwrites them, and after an
// error they are undefined.
func (w *SparseFactorizer) Factor(n int, ptr []int, ents []SparseEntry) (*SparseLU, error) {
	if len(ptr) != n+1 {
		return nil, fmt.Errorf("linsolve: %d row offsets for n=%d", len(ptr), n)
	}
	f := &w.lu
	f.n = n
	f.rowPerm, f.colPerm = resize(f.rowPerm, n), resize(f.colPerm, n)
	f.rowPos, f.colPos = resize(f.rowPos, n), resize(f.colPos, n)
	f.piv = resize(f.piv, n)
	f.lptr, f.uptr, f.cptr = resize(f.lptr, n+1), resize(f.uptr, n+1), resize(f.cptr, n+1)
	f.lcol, f.urow = f.lcol[:0], f.urow[:0]

	w.start, w.length, w.room = resize(w.start, n), resize(w.length, n), resize(w.room, n)
	w.rowDone, w.colCount = resize(w.rowDone, n), resize(w.colCount, n)
	w.pos, w.mark = resize(w.pos, n), resize(w.mark, n)
	w.colRows.reset(n)
	w.buckets.reset(n + 1)
	w.ent = w.ent[:0]
	for i := 0; i < n; i++ {
		s := len(w.ent)
		for _, e := range ents[ptr[i]:ptr[i+1]] {
			if e.Col < 0 || e.Col >= n {
				return nil, fmt.Errorf("linsolve: row %d references column %d out of range [0,%d)", i, e.Col, n)
			}
			w.ent = append(w.ent, e)
		}
		row := mergeDupCols(w.ent[s:])
		w.ent = w.ent[:s+len(row)]
		w.start[i], w.length[i], w.room[i] = s, len(row), len(row)
		for _, e := range row {
			w.colCount[e.Col]++
			w.colRows.push(e.Col, i)
		}
		w.buckets.push(len(row), i)
	}
	pos, mark, colCount, rowDone := w.pos, w.mark, w.colCount, w.rowDone
	epoch := 0

	for k := 0; k < n; k++ {
		// Collect up to markowitzCand live rows from the shortest
		// buckets and pick the cheapest admissible pivot among them.
		bestRow, bestEntry := -1, -1
		bestCost, bestAbs := math.Inf(1), 0.0
		cand := 0
		for l := 0; l <= n && cand < markowitzCand; l++ {
			prev := -1
			for nd := w.buckets.head[l]; nd >= 0 && cand < markowitzCand; nd = w.buckets.nodes[nd].next {
				i := w.buckets.nodes[nd].val
				if rowDone[i] || w.length[i] != l {
					w.buckets.unlink(l, prev, nd) // stale: row eliminated or length changed
					continue
				}
				prev = nd
				cand++
				row := w.row(i)
				rmax := 0.0
				for _, e := range row {
					if v := math.Abs(e.Val); v > rmax {
						rmax = v
					}
				}
				if rmax < tol.Singular {
					return nil, ErrSingular
				}
				for t, e := range row {
					v := math.Abs(e.Val)
					if v < markowitzTau*rmax {
						continue
					}
					cost := float64(l-1) * float64(colCount[e.Col]-1)
					//lint:ignore pcflint/floatcmp Markowitz costs are products of small integer counts, exactly representable; the tie-break must be exact for determinism
					if cost < bestCost || (cost == bestCost && v > bestAbs) {
						bestRow, bestEntry, bestCost, bestAbs = i, t, cost, v
					}
				}
			}
		}
		if bestRow < 0 {
			return nil, ErrSingular
		}

		pi := bestRow
		prow := w.row(pi)
		pe := prow[bestEntry]
		pj := pe.Col
		f.rowPerm[k], f.colPerm[k] = pi, pj
		f.rowPos[pi], f.colPos[pj] = k, k
		f.piv[k] = pe.Val
		rowDone[pi] = true

		// The pivot row becomes U row k (pivot entry excluded); its
		// other columns lose one active row.
		f.uptr[k], f.lptr[k] = len(f.urow), len(f.lcol)
		for _, e := range prow {
			if e.Col == pj {
				continue
			}
			f.urow = append(f.urow, luEntry{Idx: e.Col, Val: e.Val})
			colCount[e.Col]--
		}

		// Eliminate the pivot column from every active row holding it.
		for nd := w.colRows.head[pj]; nd >= 0; nd = w.colRows.nodes[nd].next {
			i := w.colRows.nodes[nd].val
			if rowDone[i] {
				continue
			}
			ri := w.row(i)
			epoch++
			found := -1
			for t, e := range ri {
				pos[e.Col] = t
				mark[e.Col] = epoch
				if e.Col == pj {
					found = t
				}
			}
			if found < 0 {
				continue // stale candidate: entry cancelled earlier
			}
			m := ri[found].Val / pe.Val
			f.lcol = append(f.lcol, luEntry{Idx: i, Val: m})
			// Remove the pivot column entry (order-preserving so row
			// entry order stays deterministic).
			copy(ri[found:], ri[found+1:])
			ri = ri[:len(ri)-1]
			colCount[pj]--
			if m != 0 {
				if need := len(ri) + len(prow) - 1; need > cap(ri) {
					// Every pivot-row entry may fill in: move the row to
					// the arena's end with room for that and as much
					// again. prow may now alias the old backing array,
					// which nothing writes to any more.
					s, room := len(w.ent), 2*need
					w.ent = slices.Grow(w.ent, room)[:s+room]
					copy(w.ent[s:], ri)
					w.start[i], w.room[i] = s, room
					ri = w.ent[s : s+len(ri) : s+room]
				}
				for _, e := range prow {
					if e.Col == pj {
						continue
					}
					if mark[e.Col] == epoch {
						t := pos[e.Col]
						if t > found {
							t--
							pos[e.Col] = t
						}
						ri[t].Val -= m * e.Val
					} else {
						ri = append(ri, SparseEntry{Col: e.Col, Val: -m * e.Val})
						mark[e.Col] = epoch
						pos[e.Col] = len(ri) - 1
						colCount[e.Col]++
						w.colRows.push(e.Col, i)
					}
				}
			}
			w.length[i] = len(ri)
			w.buckets.push(len(ri), i)
		}
	}
	f.uptr[n], f.lptr[n] = len(f.urow), len(f.lcol)
	f.buildUcol()
	return f, nil
}

// buildUcol transposes the U rows into per-column-position lists used
// by transpose solves, ordered by increasing step.
func (f *SparseLU) buildUcol() {
	n, cptr := f.n, f.cptr
	f.ucol = resize(f.ucol, len(f.urow))
	for _, e := range f.urow {
		cptr[f.colPos[e.Idx]+1]++
	}
	for k := 0; k < n; k++ {
		cptr[k+1] += cptr[k]
	}
	// Fill with cptr[kc] as column kc's cursor, which leaves every
	// offset one slot early; shift them back.
	for k := 0; k < n; k++ {
		for _, e := range f.urow[f.uptr[k]:f.uptr[k+1]] {
			kc := f.colPos[e.Idx]
			f.ucol[cptr[kc]] = luEntry{Idx: k, Val: e.Val}
			cptr[kc]++
		}
	}
	copy(cptr[1:], cptr[:n])
	cptr[0] = 0
}

// mergeDupCols sorts a row's entries by column and sums duplicates.
func mergeDupCols(row []SparseEntry) []SparseEntry {
	sortEntries(row)
	w := 0
	for r := 0; r < len(row); r++ {
		if w > 0 && row[w-1].Col == row[r].Col {
			row[w-1].Val += row[r].Val
		} else {
			row[w] = row[r]
			w++
		}
	}
	return row[:w]
}

// sortEntries is an insertion sort by column: rows are short and
// usually already ordered, where insertion sort is branch-cheap.
func sortEntries(row []SparseEntry) {
	for i := 1; i < len(row); i++ {
		e := row[i]
		j := i - 1
		for j >= 0 && row[j].Col > e.Col {
			row[j+1] = row[j]
			j--
		}
		row[j+1] = e
	}
}

// N returns the matrix dimension.
func (f *SparseLU) N() int { return f.n }

// FactorNNZ returns the nonzero count of the stored L and U factors
// (pivots included), the fill-in measure the refactorization triggers
// compare against.
func (f *SparseLU) FactorNNZ() int {
	return f.n + len(f.lcol) + len(f.urow) // n pivots
}

// SolveInto solves A x = b into a caller-owned buffer. It allocates a
// transient n-sized workspace; hot paths should use SolveIntoScratch.
func (f *SparseLU) SolveInto(x, b []float64) error {
	return f.SolveIntoScratch(x, b, make([]float64, f.n))
}

// SolveIntoScratch solves A x = b using caller-owned scratch w (length
// n), allocation-free and safe for concurrent use on one SparseLU.
// x must not overlap b or w.
func (f *SparseLU) SolveIntoScratch(x, b, w []float64) error {
	n := f.n
	if len(b) != n || len(x) != n || len(w) != n {
		return fmt.Errorf("linsolve: rhs length %d (dst %d, scratch %d) != %d", len(b), len(x), len(w), n)
	}
	copy(w, b)
	// Forward elimination: w := L⁻¹ P b, indexed by original row.
	for k := 0; k < n; k++ {
		t := w[f.rowPerm[k]]
		if t == 0 {
			continue
		}
		for _, e := range f.lcol[f.lptr[k]:f.lptr[k+1]] {
			w[e.Idx] -= e.Val * t
		}
	}
	// Back substitution through U, writing x by original column.
	for k := n - 1; k >= 0; k-- {
		s := w[f.rowPerm[k]]
		for _, e := range f.urow[f.uptr[k]:f.uptr[k+1]] {
			s -= e.Val * x[e.Idx]
		}
		x[f.colPerm[k]] = s / f.piv[k]
	}
	return nil
}

// SolveTransposeIntoScratch solves Aᵀ y = c using caller-owned scratch
// w (length n), allocation-free and safe for concurrent use. y must
// not overlap c or w. Transpose solves are the BTRAN half of the
// simplex: row prices against the same factors.
func (f *SparseLU) SolveTransposeIntoScratch(y, c, w []float64) error {
	n := f.n
	if len(c) != n || len(y) != n || len(w) != n {
		return fmt.Errorf("linsolve: rhs length %d (dst %d, scratch %d) != %d", len(c), len(y), len(w), n)
	}
	// Uᵀ z = Qᵀ c, forward by step using the column-position index.
	for k := 0; k < n; k++ {
		s := c[f.colPerm[k]]
		for _, e := range f.ucol[f.cptr[k]:f.cptr[k+1]] {
			s -= e.Val * w[e.Idx]
		}
		w[k] = s / f.piv[k]
	}
	// Lᵀ u = z, backward: the multipliers in lcol[k] couple step k to
	// the later steps eliminating those rows.
	for k := n - 1; k >= 0; k-- {
		s := w[k]
		for _, e := range f.lcol[f.lptr[k]:f.lptr[k+1]] {
			s -= e.Val * w[f.rowPos[e.Idx]]
		}
		w[k] = s
	}
	for k := 0; k < n; k++ {
		y[f.rowPerm[k]] = w[k]
	}
	return nil
}
