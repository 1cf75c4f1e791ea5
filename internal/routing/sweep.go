package routing

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/linsolve"
	"pcf/internal/topology"
	"pcf/internal/tunnels"
)

// SweepStats reports how a scenario sweep went — the validation-path
// counterpart of mcf.SweepStats.
type SweepStats struct {
	// Scenarios is the number of failure scenarios the sweep answered
	// for: on a designed sweep the whole designed set, on a sampled
	// tail its draws, and one per Realize or Outcome call. Classes is
	// the number it realized: one representative per class of
	// scenarios that realize bit-identically (sweepclass.go) — on a
	// sampled tail per class its draws form outside the designed
	// classes, whose draws take the engine's kept designed pass's
	// outcome — and elsewhere every scenario but those Outcome answered
	// from that pass (KeptHits). Every counter below but KeptHits counts
	// realized scenarios. Workers is the goroutines that swept them.
	Scenarios int
	Classes   int
	Workers   int
	// KeptHits counts the scenarios Outcome answered from the slot of
	// their designed class in the engine's kept designed pass, realizing
	// nothing.
	KeptHits int
	// BaseFactorTime is the one-time cost of building the engine the
	// sweep ran through: the base (no-failure) reservation matrix, its
	// factorization, and the aggregate plus per-destination base
	// solves.
	BaseFactorTime time.Duration
	// SMWHits counts scenarios served by the Sherman–Morrison–Woodbury
	// low-rank path (including unchanged scenarios served straight
	// from the base solutions); Fallbacks counts scenarios the cold path
	// served — their own rows factored afresh — and the three counters
	// after it split that number by cause: the engine has no factored
	// base, no corrector could be built (a singular or ill-conditioned
	// capacitance), or the corrected rows failed the residual guard. The
	// correction's rank is not a cause: it counts distinct rows, so it
	// never exceeds n, and the identity is exact up to there (DESIGN.md
	// §12).
	SMWHits           int
	Fallbacks         int
	FallbacksNoBase   int
	FallbacksSingular int
	FallbacksResidual int
	// DestEvals counts the per-destination emissions of the SMW-served
	// scenarios; DestReplays those among them that replayed the
	// engine's recorded base emission because the scenario provably
	// could not change the destination (sweepemit.go).
	DestEvals   int
	DestReplays int
	// ArcChecks counts the arcs the sweep's checks visited one by one:
	// per scenario, the arcs its emission touched plus the arcs its
	// dead and degraded links overlay (every arc, on the cold path or an
	// engine with no base record). Every other arc's verdict is the
	// record's (sweepcheck.go).
	ArcChecks int
	// MaxRank is the largest rank-k correction served by the SMW path.
	MaxRank int
	// BatchHits counts the SMW-served scenarios of this sweep whose
	// capacitance factorization was reused from another scenario with
	// the same update signature (scenarios sharing dead-link
	// structure).
	BatchHits int
	// Total is the wall clock of the sweep; calls that build their own
	// engine include BaseFactorTime in it.
	Total time.Duration
}

// SMWHitRate is the fraction of scenario realizations served by the
// low-rank path.
func (s SweepStats) SMWHitRate() float64 {
	if s.Classes == 0 {
		return 0
	}
	return float64(s.SMWHits) / float64(s.Classes)
}

// Metrics flattens the stats into the flat field schema of the
// telemetry record model (durations in milliseconds). The keys are the
// one vocabulary for validation-sweep statistics everywhere they surface.
func (s SweepStats) Metrics() map[string]float64 {
	return map[string]float64{
		"scenarios":           float64(s.Scenarios),
		"classes":             float64(s.Classes),
		"workers":             float64(s.Workers),
		"kept_hits":           float64(s.KeptHits),
		"smw_hits":            float64(s.SMWHits),
		"fallbacks":           float64(s.Fallbacks),
		"fallbacks_nobase":    float64(s.FallbacksNoBase),
		"fallbacks_singular":  float64(s.FallbacksSingular),
		"fallbacks_residual":  float64(s.FallbacksResidual),
		"dest_evals":          float64(s.DestEvals),
		"dest_replays":        float64(s.DestReplays),
		"arc_checks":          float64(s.ArcChecks),
		"max_rank":            float64(s.MaxRank),
		"batch_hits":          float64(s.BatchHits),
		"smw_hit_rate":        s.SMWHitRate(),
		"base_factor_time_ms": float64(s.BaseFactorTime) / float64(time.Millisecond),
		"total_ms":            float64(s.Total) / float64(time.Millisecond),
	}
}

// fallbackCause says why a scenario left the low-rank path.
type fallbackCause uint8

const (
	causeNoBase fallbackCause = iota + 1
	causeSingular
	causeResidual
)

// served says how the engine answered one scenario: through the
// low-rank path (with what correction rank, whether the corrector came
// out of the signature cache, and how many of the destinations emitted
// were replays) or through the cold path, and then why.
type served struct {
	smw      bool
	rank     int
	batchHit bool
	evals    int
	replays  int
	cause    fallbackCause
}

// count folds one successfully served scenario into the stats.
func (s *SweepStats) count(sv served) {
	if !sv.smw {
		s.Fallbacks++
		switch sv.cause {
		case causeNoBase:
			s.FallbacksNoBase++
		case causeSingular:
			s.FallbacksSingular++
		case causeResidual:
			s.FallbacksResidual++
		}
		return
	}
	s.SMWHits++
	s.MaxRank = max(s.MaxRank, sv.rank)
	if sv.batchHit {
		s.BatchHits++
	}
	s.DestEvals += sv.evals
	s.DestReplays += sv.replays
}

// add folds the counts of another sweep through the same engine (or of
// one worker of this sweep) into s.
func (s *SweepStats) add(o SweepStats) {
	s.Scenarios += o.Scenarios
	s.Classes += o.Classes
	s.Workers = max(s.Workers, o.Workers)
	s.KeptHits += o.KeptHits
	s.SMWHits += o.SMWHits
	s.Fallbacks += o.Fallbacks
	s.FallbacksNoBase += o.FallbacksNoBase
	s.FallbacksSingular += o.FallbacksSingular
	s.FallbacksResidual += o.FallbacksResidual
	s.DestEvals += o.DestEvals
	s.DestReplays += o.DestReplays
	s.ArcChecks += o.ArcChecks
	s.MaxRank = max(s.MaxRank, o.MaxRank)
	s.BatchHits += o.BatchHits
	s.Total += o.Total
}

// sweepLS is a positive-reservation logical sequence translated into
// universe-row coordinates.
type sweepLS struct {
	id         core.LSID // the instance LS it stands for
	pairRow    int       // universe row of q.Pair, or -1 if not of interest
	segRows    []int     // universe rows of the segments, multiplicity kept
	res        float64
	cond       *core.Condition
	baseActive bool // active in the no-failure scenario
}

// Sweep is the §4.1 realization engine: one object per plan, built
// once (sweepbuild.go) and then shared read-only by every goroutine
// that realizes scenarios through it (sweeprealize.go, sweepemit.go).
//
// The build precomputes everything scenario-independent: the
// "universe" pairs of interest (transitive closure of the demand pairs
// through every positive-reservation LS, conditions ignored — a
// superset of any scenario's pair set, so conditional LSs that only
// activate under failures still have their rows in the base space),
// the base reservation matrix as sparse rows with identity rows
// padding pairs outside the no-failure set, its Markowitz LU, the
// base solutions of the aggregate and per-destination systems, and the
// emission of the no-failure scenario per destination. Each scenario is
// then a sparse rank-k row correction of that base, served through
// Sherman–Morrison–Woodbury with inverse columns solved lazily per
// updated row and correctors shared between scenarios with identical
// update signatures; a destination the scenario provably cannot change
// replays its recorded emission, and an arc no changed destination
// loads keeps its recorded load and verdict. The one fallback is the
// cold path (cold): the scenario's own sparse rows, built by the same
// row routine, factored afresh and emitted the same way — taken when
// the engine has no factored base, the capacitance is singular or
// ill-conditioned, or the corrected rows fail the residual guard. An
// engine built without a base (newIndex) serves only that path; it is
// what Realize runs.
//
// A Sweep is one view of its engine. Every view shares the build
// products and the inverse-column cache, which depend on the plan
// alone; the corrector cache is the view's own. The engine
// NewSweepContext returns is the only view most callers see; a fork
// (ValidateSampled's tail) reads it and keeps its own misses apart.
type Sweep struct {
	*engine
	cors   *correctors // the correctors this view builds and keeps
	parent *correctors // a fork's: its parent's, read first, never written
}

// engine is what every view of a Sweep shares: the build products,
// read-only once the build returns, the inverse columns solved so far,
// the scratch pool and the single-scenario counters.
type engine struct {
	plan *core.Plan

	n     int
	pairs []topology.Pair
	index map[topology.Pair]int

	numTun    int
	pairTun   [][]tunnels.ID                   // universe row -> tunnels of that pair
	tunRow    []int                            // tunnel -> universe row (-1 if none)
	tunRes    []float64                        // tunnel -> reservation (plan.TunnelRes, flat)
	linkTuns  map[topology.LinkID][]tunnels.ID // link -> tunnels of universe pairs using it
	ls        []sweepLS
	localLS   [][]int // row -> indexes into ls with pairRow == row
	throughLS [][]int // row -> indexes into ls having the row as a segment
	seeds     []int   // universe rows of positive-demand pairs
	demand    []float64
	dests     []topology.NodeID

	// The check's scenario-independent inputs, flat: destIndex maps a
	// node to its position in dests (-1: not a destination), wantNodes
	// lists per destination the nodes with a non-zero balance target,
	// ascending, and wantVals — parallel to wantNodes.val — the targets;
	// arcCap is the nominal arc capacities.
	destIndex []int32
	wantNodes jagged
	wantVals  []float64
	arcCap    []float64

	baseInSet []bool
	baseRows  [][]linsolve.SparseEntry // base matrix rows, ascending column
	slu       *linsolve.SparseLU       // base factorization; nil: the engine serves only the cold path
	uBase     []float64                // base aggregate solution A⁻¹D
	destBase  [][]float64              // base per-destination solutions A⁻¹D_t
	rec       *baseEmission            // what emitDests produces on the empty scenario; set with slu

	// invCols[r] holds, once a corrector has needed it, the nonzeros of
	// column r of the base inverse (one slot per row, set with slu);
	// keySeed hashes the corrector signatures of every view.
	invCols []atomic.Pointer[linsolve.SparseColumn]
	keySeed maphash.Seed

	// classes partitions the designed set (sweepclass.go); the first
	// designed sweep through any view builds it under classMu, and its
	// key index then classifies every sampled tail's draws, read-only.
	classMu sync.Mutex
	classes *designedClasses

	// pass is the outcome of the first checked designed pass through
	// any view that ran to completion (keep), nil until then;
	// ValidateSampled and Outcome read it.
	pass atomic.Pointer[designedPass]

	baseTime time.Duration
	pool     sync.Pool

	mu    sync.Mutex
	stats SweepStats // cumulative over Realize and Outcome calls; guarded by mu
}

// correctors is a view's cache of SMW correctors, keyed by a keySeed
// hash of the byte signature of a scenario's row updates (uint64 ->
// *batchEntry, which holds the signature). cap bounds it: once the view
// has missed cap times, a missed corrector is built, used and not kept.
// An engine's cap is its designed scenario count — the designed sweep
// cannot miss more often than that, so only client-chosen scenarios
// ever find the cache full — and a fork's the number of tail
// representatives it realizes.
type correctors struct {
	m      sync.Map
	cap    int64
	misses atomic.Int64
}

// load returns the corrector cached under h if its entry was built for
// signature key (nil with ok: a memoized failed construction). A nil
// cache holds nothing.
func (c *correctors) load(h uint64, key []byte) (upd *linsolve.Updated, ok bool) {
	if c == nil {
		return nil, false
	}
	if v, found := c.m.Load(h); found {
		if be := v.(*batchEntry); be.key == string(key) {
			return be.upd, true
		}
	}
	return nil, false
}

// keep stores a freshly built entry under h while the cache is within
// its bound, and returns the corrector to serve: the cached one, or be's
// when the bound is spent or h already holds another signature's entry.
// Racing workers may each build an entry once; the build is
// deterministic, so whichever copy wins the store is interchangeable.
func (c *correctors) keep(h uint64, be *batchEntry) *linsolve.Updated {
	if c.misses.Add(1) > c.cap {
		return be.upd
	}
	if v, _ := c.m.LoadOrStore(h, be); v.(*batchEntry).key == be.key {
		return v.(*batchEntry).upd
	}
	return be.upd
}

// fork returns a view of s for a sweep of client-chosen scenarios. It
// shares s's engine: the build products and the inverse columns, which
// depend on the plan alone (there are at most n columns). The
// correctors are the scenarios', so it reads s's first, never writes
// them, and keeps at most bound of its own. It is dropped with the
// call that made it.
func (s *Sweep) fork(bound int64) *Sweep {
	return &Sweep{engine: s.engine, cors: &correctors{cap: bound}, parent: s.cors}
}

// batchEntry is one memoized SMW corrector (or the error its
// construction produced — cached too, so an ill-conditioned group
// falls back cold without refactoring the capacitance every time),
// under the signature it was built for.
type batchEntry struct {
	key string
	upd *linsolve.Updated
	err error
}

// SweepUpdateFault, when non-nil, is consulted once per rank-k SMW
// update, before the update is applied; returning an error forces the
// scenario onto the cold path, counted in SweepStats.Fallbacks exactly
// like a genuinely ill-conditioned capacitance. It exists for fault
// injection (internal/faultinject): tests prove the fallback stays
// bit-equal to Realize and within 1e-9 of the dense oracle. Production
// code must leave it nil, and it must not be changed while sweeps are
// running.
var SweepUpdateFault func(ups []linsolve.RowUpdate) error

// Check verifies Proposition 6's properties for a realization of this
// sweep's plan, like CheckRealization, but against the capacities and
// per-destination balance targets precomputed once per plan. It reports
// the first overloaded arc if there is one, else the first destination
// in node order that misses balance, at its lowest-numbered node. A
// realization that does not fit the plan is an error (checkShape); one
// with a destination outside the precomputed set falls back to the
// general check.
func (s *Sweep) Check(r *Realization) error {
	if err := checkShape(s.plan.Instance, r); err != nil {
		return err
	}
	for dst := range r.TunnelTo {
		if s.destIndex[dst] < 0 {
			return CheckRealization(s.plan, r)
		}
	}
	sr := s.pool.Get().(*sweepScratch)
	_, err := s.judge(r.Scenario, sr, r, true)
	s.pool.Put(sr)
	return err
}

// BaseFactorTime reports the one-time precomputation cost.
func (s *Sweep) BaseFactorTime() time.Duration { return s.baseTime }

// Stats snapshots the engine's cumulative counters over the scenarios
// served one at a time, through Realize or Outcome, and those Outcome
// answered from the kept designed pass (KeptHits). Sweeps run through
// the engine (ValidateStats, ValidateSampled) count per call instead
// and leave these alone.
func (s *Sweep) Stats() SweepStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// tally folds one scenario served through Realize or Outcome into the
// cumulative stats.
func (s *Sweep) tally(sv served, err error) {
	s.mu.Lock()
	s.stats.Scenarios++
	s.stats.Classes++
	if err == nil {
		s.stats.count(sv)
	}
	s.mu.Unlock()
}

// Realize computes the routing for one scenario, using the low-rank
// path when it applies and the cold path otherwise. A scenario the cold
// path serves is bit for bit Realize(plan, sc), which runs the same
// routine; a low-rank one agrees with it to linear-solver round-off
// (1e-9 relative, property-tested). Safe for concurrent use.
func (s *Sweep) Realize(sc failures.Scenario) (*Realization, error) {
	sr := s.pool.Get().(*sweepScratch)
	sv, err := s.realize(sc, sr)
	var r *Realization
	if err == nil {
		r = s.materialize(sc, sr)
	}
	s.pool.Put(sr)
	s.tally(sv, err)
	return r, err
}

// Outcome is what one realized scenario comes to, without its flows.
type Outcome struct {
	// Pairs is the number of pairs of interest (len(Realization.Pairs)).
	Pairs int
	// MaxU is the largest aggregate utilization among them, 0 if none.
	MaxU float64
	// MLU is the maximum link utilization under the scenario's
	// capacities, MLUOf of the realization.
	MLU float64
}

// Outcome reports what one scenario comes to, as Realize would serve
// it: no Realization is built. A scenario of a designed class that the
// engine's kept designed pass swept without error is answered from
// that class's slot (kept), counted in KeptHits: its members realize
// bit-identically, so the slot is the scenario's own outcome. Any
// other scenario — one with a degraded link, one outside every
// designed class, any on an engine that has kept no pass — is served
// as Realize serves it and read from the flat emission in the worker's
// scratch. Its MLU is the check's (judge), which visits only the arcs
// the scenario touched or overlays and takes every other arc from the
// engine's record; it is bit-equal to MLUOf of Realize's answer, and
// MaxU to the largest of its U. Errors are Realize's, counted the same
// way in Stats. A warm scenario allocates nothing. Safe for concurrent
// use.
func (s *Sweep) Outcome(sc failures.Scenario) (Outcome, error) {
	sr := s.pool.Get().(*sweepScratch)
	if out, ok := s.kept(sc, sr); ok {
		s.pool.Put(sr)
		s.mu.Lock()
		s.stats.Scenarios++
		s.stats.KeptHits++
		s.mu.Unlock()
		return out, nil
	}
	sv, err := s.realize(sc, sr)
	var out Outcome
	if err == nil {
		out.Pairs, out.MaxU = sr.inCount, sr.maxU
		out.MLU, _ = s.judge(sc, sr, nil, false)
	}
	s.pool.Put(sr)
	s.tally(sv, err)
	return out, err
}

// kept answers sc from the engine's kept designed pass: the slot of the
// designed class its dead links key to (keyOfDead), if the pass swept
// that class without error. A scenario with a degraded link or a dead
// link outside the graph, one whose key no designed class holds, and
// every scenario before a pass is kept have no kept answer. The key is
// built in sr, so a lookup allocates nothing once sr has its keys.
func (s *Sweep) kept(sc failures.Scenario, sr *sweepScratch) (Outcome, bool) {
	p := s.pass.Load()
	if p == nil || len(sc.Degraded) > 0 {
		return Outcome{}, false
	}
	if sr.keys == nil {
		k := newClassKeys(s.engine, p.cls.tables, nil)
		sr.keys = &k
	}
	key := sr.keys.keyOfDead(sc.Dead)
	if key == nil {
		return Outcome{}, false
	}
	c := p.cls.index.find(maphash.Bytes(s.keySeed, key), key)
	if c < 0 {
		return Outcome{}, false
	}
	slot := &p.slots[c]
	if !slot.done || slot.err != nil {
		return Outcome{}, false
	}
	return Outcome{Pairs: int(slot.pairs), MaxU: slot.maxU, MLU: slot.mlu}, true
}
