package telemetry

import (
	"errors"
	"math"
	"testing"
	"time"
)

// approxEq is the test-side tolerance helper for aggregated floats.
func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func t0() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }

// seedStore emits a deterministic mixed stream: 10 request records (5
// ok / 3 shed / 2 error) across two sources and 4 solve records with a
// known lp_iterations series.
func seedStore(t *testing.T) *Store {
	t.Helper()
	s := mustOpen(t, "", StoreConfig{})
	t.Cleanup(func() { s.Close() })
	outcomes := []string{"", "", "", "", "", "shed", "shed", "shed", "error", "error"}
	for i, oc := range outcomes {
		src := "pcfd-a"
		if i%2 == 1 {
			src = "pcfd-b"
		}
		s.Emit(Record{
			Time:    t0().Add(time.Duration(i) * 10 * time.Second),
			Kind:    KindRequest,
			Source:  src,
			Name:    "/v1/realize",
			Outcome: oc,
			Epoch:   uint64(1 + i/5),
			Dur:     time.Duration(i+1) * time.Millisecond,
		})
	}
	for i, iters := range []float64{100, 200, 300, 400} {
		s.Emit(Record{
			Time:   t0().Add(time.Duration(i) * time.Minute),
			Kind:   KindSolve,
			Scheme: "pcf-ls",
			Fields: map[string]float64{"lp_iterations": iters},
		})
	}
	return s
}

func TestQueryCountsAndFilters(t *testing.T) {
	s := seedStore(t)

	bs, err := s.Query(Query{Kind: KindRequest})
	if err != nil || len(bs) != 1 {
		t.Fatalf("Query(kind=request) = %v buckets, err %v; want 1, nil", len(bs), err)
	}
	if bs[0].Count != 10 {
		t.Fatalf("request count %d, want 10", bs[0].Count)
	}

	bs, err = s.Query(Query{Kind: KindRequest, Outcome: "shed"})
	if err != nil || len(bs) != 1 || bs[0].Count != 3 {
		t.Fatalf("shed count: buckets %v err %v, want one bucket of 3", bs, err)
	}
	// Empty stored outcome normalizes to "ok".
	bs, err = s.Query(Query{Kind: KindRequest, Outcome: "ok"})
	if err != nil || len(bs) != 1 || bs[0].Count != 5 {
		t.Fatalf("ok count: buckets %v err %v, want one bucket of 5", bs, err)
	}
	bs, err = s.Query(Query{Kind: KindRequest, Source: "pcfd-b"})
	if err != nil || len(bs) != 1 || bs[0].Count != 5 {
		t.Fatalf("source filter: buckets %v err %v, want one bucket of 5", bs, err)
	}
	// Since inclusive, Until exclusive: records at 40s..80s.
	bs, err = s.Query(Query{Kind: KindRequest, Since: t0().Add(40 * time.Second), Until: t0().Add(90 * time.Second)})
	if err != nil || len(bs) != 1 || bs[0].Count != 5 {
		t.Fatalf("window filter: buckets %v err %v, want one bucket of 5", bs, err)
	}
	// No matches: no buckets, no error.
	bs, err = s.Query(Query{Kind: KindRequest, Scheme: "nope"})
	if err != nil || len(bs) != 0 {
		t.Fatalf("no-match query: buckets %v err %v, want none", bs, err)
	}
}

func TestQueryMetricAggregation(t *testing.T) {
	s := seedStore(t)

	// lp_iterations over the 4 solve records: 100,200,300,400.
	bs, err := s.Query(Query{Kind: KindSolve, Metric: "lp_iterations"})
	if err != nil || len(bs) != 1 {
		t.Fatalf("metric query: %v buckets, err %v", len(bs), err)
	}
	b := bs[0]
	if b.Count != 4 || !approxEq(b.Sum, 1000) || !approxEq(b.Min, 100) || !approxEq(b.Max, 400) {
		t.Fatalf("aggregates = %+v, want count 4 sum 1000 min 100 max 400", b)
	}
	// Nearest-rank: p50 of 4 values is the 2nd, p95/p99 the 4th.
	if !approxEq(b.P50, 200) || !approxEq(b.P95, 400) || !approxEq(b.P99, 400) {
		t.Fatalf("percentiles = p50 %v p95 %v p99 %v, want 200/400/400", b.P50, b.P95, b.P99)
	}

	// Records lacking the metric are skipped, not zero-counted.
	bs, err = s.Query(Query{Metric: "lp_iterations"})
	if err != nil || len(bs) != 1 || bs[0].Count != 4 {
		t.Fatalf("metric skip: buckets %v err %v, want only the 4 solve records", bs, err)
	}

	// dur_ms aggregates Record.Dur: requests carry 1..10ms.
	bs, err = s.Query(Query{Kind: KindRequest, Metric: "dur_ms"})
	if err != nil || len(bs) != 1 {
		t.Fatalf("dur_ms query: %v buckets, err %v", len(bs), err)
	}
	if b := bs[0]; !approxEq(b.Sum, 55) || !approxEq(b.P50, 5) {
		t.Fatalf("dur_ms aggregates = %+v, want sum 55 p50 5", b)
	}
}

func TestQueryGroupingAndBuckets(t *testing.T) {
	s := seedStore(t)

	bs, err := s.Query(Query{Kind: KindRequest, GroupBy: "outcome"})
	if err != nil {
		t.Fatalf("group by outcome: %v", err)
	}
	// Deterministic order: groups sorted lexicographically.
	want := []struct {
		group string
		count int
	}{{"error", 2}, {"ok", 5}, {"shed", 3}}
	if len(bs) != len(want) {
		t.Fatalf("got %d groups, want %d: %+v", len(bs), len(want), bs)
	}
	for i, w := range want {
		if bs[i].Group != w.group || bs[i].Count != w.count {
			t.Fatalf("group %d = %s/%d, want %s/%d", i, bs[i].Group, bs[i].Count, w.group, w.count)
		}
	}

	// Epoch grouping: epoch 1 covers the first 5 records.
	bs, err = s.Query(Query{Kind: KindRequest, GroupBy: "epoch"})
	if err != nil || len(bs) != 2 || bs[0].Group != "1" || bs[0].Count != 5 {
		t.Fatalf("group by epoch: %+v err %v, want epochs 1 and 2 with 5 each", bs, err)
	}

	// Minute buckets over the request stream (10s spacing): 12:00 holds
	// 6 records, 12:01 holds 4; buckets sorted by start.
	bs, err = s.Query(Query{Kind: KindRequest, Bucket: time.Minute})
	if err != nil || len(bs) != 2 {
		t.Fatalf("bucketed query: %+v err %v, want 2 buckets", bs, err)
	}
	if bs[0].Count != 6 || bs[1].Count != 4 {
		t.Fatalf("bucket counts = %d,%d, want 6,4", bs[0].Count, bs[1].Count)
	}
	if !bs[0].Start.Equal(t0()) || !bs[1].Start.Equal(t0().Add(time.Minute)) {
		t.Fatalf("bucket starts = %v,%v, want %v,%v", bs[0].Start, bs[1].Start, t0(), t0().Add(time.Minute))
	}

	if _, err := s.Query(Query{GroupBy: "nonsense"}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("unknown group_by error = %v, want ErrBadQuery", err)
	}
}

func TestQueryDeterministic(t *testing.T) {
	s := seedStore(t)
	q := Query{Kind: KindRequest, Bucket: time.Minute, GroupBy: "outcome", Metric: "dur_ms"}
	first, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("run %d returned %d buckets, first returned %d", i, len(again), len(first))
		}
		for j := range first {
			a, b := first[j], again[j]
			if a.Start != b.Start || a.Group != b.Group || a.Count != b.Count ||
				!approxEq(a.Sum, b.Sum) || !approxEq(a.P50, b.P50) || !approxEq(a.P95, b.P95) || !approxEq(a.P99, b.P99) {
				t.Fatalf("run %d bucket %d differs: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

func TestQuerySurvivesReopen(t *testing.T) {
	// The same aggregation over the same records must hold across a
	// kill-restart mid-segment.
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreConfig{SegmentRecords: 3})
	for i := 0; i < 8; i++ {
		s.Emit(Record{
			Time:   t0().Add(time.Duration(i) * time.Second),
			Kind:   KindSolve,
			Fields: map[string]float64{"lp_iterations": float64((i + 1) * 10)},
		})
	}
	q := Query{Kind: KindSolve, Metric: "lp_iterations"}
	before, err := s.Query(q)
	if err != nil || len(before) != 1 {
		t.Fatalf("pre-crash query: %+v err %v", before, err)
	}
	s.crash() // two sealed segments + a torn 2-record open segment

	s2 := mustOpen(t, dir, StoreConfig{SegmentRecords: 3})
	defer s2.Close()
	after, err := s2.Query(q)
	if err != nil || len(after) != 1 {
		t.Fatalf("post-recovery query: %+v err %v", after, err)
	}
	a, b := before[0], after[0]
	if a.Count != b.Count || !approxEq(a.Sum, b.Sum) || !approxEq(a.Min, b.Min) ||
		!approxEq(a.Max, b.Max) || !approxEq(a.P50, b.P50) || !approxEq(a.P99, b.P99) {
		t.Fatalf("aggregation changed across kill-restart: %+v vs %+v", a, b)
	}
}

func TestNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{{50, 5}, {95, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}}
	for _, c := range cases {
		if got := nearestRank(vals, c.p); !approxEq(got, c.want) {
			t.Errorf("nearestRank(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); !approxEq(got, 0) {
		t.Errorf("nearestRank(empty) = %v, want 0", got)
	}
	one := []float64{42}
	for _, p := range []float64{1, 50, 99} {
		if got := nearestRank(one, p); !approxEq(got, 42) {
			t.Errorf("nearestRank(single, p=%v) = %v, want 42", p, got)
		}
	}
}

// TestMultiFanOut: Multi reaches every non-nil sink in order and
// collapses to the sink itself when only one remains.
func TestMultiFanOut(t *testing.T) {
	st := mustOpen(t, "", StoreConfig{})
	t.Cleanup(func() { st.Close() })
	var seen []Kind
	tap := EmitterFunc(func(r Record) { seen = append(seen, r.Kind) })
	Multi(st, nil, Discard, tap).Emit(Record{Kind: KindPublish})
	if len(seen) != 1 || seen[0] != KindPublish {
		t.Fatalf("tap saw %v, want one publish record", seen)
	}
	if got := st.Stats().Appended; got != 1 {
		t.Fatalf("store appended %d records, want 1", got)
	}
	if got := Multi(nil, st); got != Emitter(st) {
		t.Fatalf("Multi(nil, store) = %T, want the store itself", got)
	}
}
