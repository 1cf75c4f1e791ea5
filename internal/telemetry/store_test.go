package telemetry

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// crash simulates a process death mid-segment: buffered bytes reach the
// OS (a crash after write(2) but before any fsync/rename), the open
// segment is never sealed, and the flusher just stops. The next Open on
// the same directory must salvage the decodable prefix.
func (s *Store) crash() {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	if s.w != nil {
		s.w.Flush()
	}
	if s.f != nil {
		s.f.Close()
	}
	s.f, s.w = nil, nil
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.done)
	}
	<-s.flusherDone
}

func mustOpen(t *testing.T, dir string, cfg StoreConfig) *Store {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s
}

func emitN(s *Store, n int, kind Kind) {
	for i := 0; i < n; i++ {
		s.Emit(Record{Kind: kind, Name: "n", Fields: map[string]float64{"i": float64(i)}})
	}
}

func readAll(t *testing.T, s *Store) []Record {
	t.Helper()
	recs, _, err := s.ReadSince(0, 0)
	if err != nil {
		t.Fatalf("ReadSince: %v", err)
	}
	return recs
}

func listSegments(t *testing.T, dir, suffix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreConfig{SegmentRecords: 100})
	emitN(s, 10, KindRequest)

	recs := readAll(t, s)
	if len(recs) != 10 {
		t.Fatalf("got %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
		if r.Time.IsZero() {
			t.Fatalf("record %d missing a stamped time", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}

	// Close seals the open segment; a reopen must see everything and
	// resume the sequence.
	s2 := mustOpen(t, dir, StoreConfig{SegmentRecords: 100})
	defer s2.Close()
	recs = readAll(t, s2)
	if len(recs) != 10 {
		t.Fatalf("after reopen got %d records, want 10", len(recs))
	}
	s2.Emit(Record{Kind: KindRequest})
	recs = readAll(t, s2)
	if got := recs[len(recs)-1].Seq; got != 11 {
		t.Fatalf("sequence did not resume: new record has seq %d, want 11", got)
	}
}

func TestStoreSealAndRetention(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreConfig{SegmentRecords: 4, RetainSegments: 2})
	defer s.Close()
	emitN(s, 19, KindRequest) // 4 sealed segments of 4, plus 3 in the open one

	sealed := listSegments(t, dir, segSuffix)
	if len(sealed) != 2 {
		t.Fatalf("retention kept %d sealed segments (%v), want 2", len(sealed), sealed)
	}
	open := listSegments(t, dir, openSuffix)
	if len(open) != 1 {
		t.Fatalf("got %d open segments (%v), want 1", len(open), open)
	}

	// The retained segments are the newest: seqs 9..16 on disk, 17..19
	// in the open segment.
	recs := readAll(t, s)
	if len(recs) != 11 {
		t.Fatalf("got %d records after retention, want 11", len(recs))
	}
	if recs[0].Seq != 9 || recs[len(recs)-1].Seq != 19 {
		t.Fatalf("retained range [%d,%d], want [9,19]", recs[0].Seq, recs[len(recs)-1].Seq)
	}

	// Cursor reads resume exactly where they left off.
	first, cur, err := s.ReadSince(0, 5)
	if err != nil || len(first) != 5 || cur != 13 {
		t.Fatalf("ReadSince(0,5) = %d recs, cursor %d, err %v; want 5, 13, nil", len(first), cur, err)
	}
	rest, cur2, err := s.ReadSince(cur, 0)
	if err != nil || len(rest) != 6 || cur2 != 19 {
		t.Fatalf("ReadSince(%d,0) = %d recs, cursor %d, err %v; want 6, 19, nil", cur, len(rest), cur2, err)
	}
}

func TestStoreCrashRecoverySalvagesTornSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreConfig{SegmentRecords: 100})
	emitN(s, 7, KindSolve)
	s.crash() // dies mid-segment: no seal, no rename

	if got := listSegments(t, dir, openSuffix); len(got) != 1 {
		t.Fatalf("crash left %d open segments, want 1", len(got))
	}

	s2 := mustOpen(t, dir, StoreConfig{SegmentRecords: 100})
	defer s2.Close()
	recs := readAll(t, s2)
	if len(recs) != 7 {
		t.Fatalf("recovered %d records, want 7", len(recs))
	}
	if got := listSegments(t, dir, openSuffix); len(got) != 0 {
		t.Fatalf("recovery left torn open segments behind: %v", got)
	}
	st := s2.Stats()
	if st.Salvaged != 7 {
		t.Fatalf("stats report %d salvaged records, want 7", st.Salvaged)
	}
	if st.NextSeq != 8 {
		t.Fatalf("next seq %d after recovery, want 8", st.NextSeq)
	}
}

func TestStoreCrashRecoveryDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreConfig{SegmentRecords: 100})
	emitN(s, 5, KindSolve)
	s.crash()

	// Simulate a write torn mid-record: garbage with no newline at the
	// tail of the open segment.
	open := listSegments(t, dir, openSuffix)
	if len(open) != 1 {
		t.Fatalf("want one open segment, got %v", open)
	}
	path := filepath.Join(dir, open[0])
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"2026-01-01T00:00:00Z","seq":6,"ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir, StoreConfig{SegmentRecords: 100})
	defer s2.Close()
	recs := readAll(t, s2)
	if len(recs) != 5 {
		t.Fatalf("recovered %d records, want the 5-record decodable prefix", len(recs))
	}
	if st := s2.Stats(); st.NextSeq != 6 {
		t.Fatalf("next seq %d, want 6 (torn tail discarded)", st.NextSeq)
	}
}

func TestStoreQuarantinesUndecodableSealedSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreConfig{SegmentRecords: 4})
	emitN(s, 9, KindRequest) // seals two segments
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	sealed := listSegments(t, dir, segSuffix)
	if len(sealed) < 2 {
		t.Fatalf("want at least 2 sealed segments, got %v", sealed)
	}
	// Rot the first (oldest) sealed segment from its first byte.
	if err := os.WriteFile(filepath.Join(dir, sealed[0]), []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, StoreConfig{SegmentRecords: 4})
	defer s2.Close()
	if got := listSegments(t, dir, ".corrupt"); len(got) != 1 {
		t.Fatalf("quarantine produced %d .corrupt files (%v), want 1", len(got), got)
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats report %d quarantined, want 1", st.Quarantined)
	}
	// The surviving records (seqs 5..9) still read back in order.
	recs := readAll(t, s2)
	if len(recs) != 5 || recs[0].Seq != 5 || recs[4].Seq != 9 {
		t.Fatalf("surviving records wrong: %d recs, range [%d,%d]; want 5 in [5,9]",
			len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s := mustOpen(t, "", StoreConfig{MemoryRecords: 8})
	defer s.Close()
	if s.Persistent() {
		t.Fatal("memory-only store claims to be persistent")
	}
	if err := s.Writable(); err != nil {
		t.Fatalf("memory-only store not writable: %v", err)
	}
	emitN(s, 20, KindRequest)
	recs := readAll(t, s)
	if len(recs) != 8 {
		t.Fatalf("ring holds %d records, want 8", len(recs))
	}
	if recs[0].Seq != 13 || recs[7].Seq != 20 {
		t.Fatalf("ring range [%d,%d], want [13,20]", recs[0].Seq, recs[7].Seq)
	}
	if st := s.Stats(); st.Dropped != 12 {
		t.Fatalf("stats report %d dropped, want 12", st.Dropped)
	}
}

// TestStoreRingWrap drives a memory-only store through and far past
// its capacity and, after every Emit, compares what ReadSince, Tail,
// Query and the dropped counter report with a model that keeps the
// newest cap records by shifting a slice — the store's behaviour before
// eviction became an in-place overwrite. A full ring must also take an
// Emit without allocating.
func TestStoreRingWrap(t *testing.T) {
	const ringCap = 8
	s := mustOpen(t, "", StoreConfig{MemoryRecords: ringCap})
	defer s.Close()
	var model []Record
	for i := 1; i <= 3*ringCap+3; i++ {
		s.Emit(Record{Kind: KindRequest, Name: "n", Fields: map[string]float64{"i": float64(i)}})
		model = append(model, Record{Seq: uint64(i)})
		if len(model) > ringCap {
			model = append(model[:0], model[1:]...)
		}
		if st := s.Stats(); st.Dropped != uint64(i-len(model)) {
			t.Fatalf("after %d emits: %d dropped, want %d", i, st.Dropped, i-len(model))
		}
		for _, after := range []uint64{0, model[0].Seq - 1, model[0].Seq + 2, uint64(i) - 1, uint64(i)} {
			for _, limit := range []int{0, 3} {
				var want []uint64
				for _, r := range model {
					if r.Seq > after && (limit == 0 || len(want) < limit) {
						want = append(want, r.Seq)
					}
				}
				wantNext := after
				if len(want) > 0 {
					wantNext = want[len(want)-1]
				}
				got, next, err := s.ReadSince(after, limit)
				if err != nil {
					t.Fatal(err)
				}
				if next != wantNext || len(got) != len(want) {
					t.Fatalf("after %d emits: ReadSince(%d, %d) = %d records, cursor %d; want %d, %d",
						i, after, limit, len(got), next, len(want), wantNext)
				}
				for j, r := range got {
					//lint:ignore pcflint/floatcmp the field round-trips the emit index exactly
					if r.Seq != want[j] || r.Fields["i"] != float64(want[j]) {
						t.Fatalf("after %d emits: ReadSince(%d, %d)[%d] = seq %d field %g, want seq %d",
							i, after, limit, j, r.Seq, r.Fields["i"], want[j])
					}
				}
				if len(want) == 0 {
					continue // a satisfied cursor would park the tail
				}
				tailed, tnext, err := s.Tail(context.Background(), after, limit)
				if err != nil || tnext != wantNext || len(tailed) != len(want) {
					t.Fatalf("after %d emits: Tail(%d, %d) = %d records, cursor %d, err %v; want %d, %d",
						i, after, limit, len(tailed), tnext, err, len(want), wantNext)
				}
			}
		}
		bs, err := s.Query(Query{Metric: "i"})
		if err != nil || len(bs) != 1 {
			t.Fatalf("after %d emits: query = %v, %v", i, bs, err)
		}
		//lint:ignore pcflint/floatcmp small integers are exact in float64
		if b := bs[0]; b.Count != len(model) || b.Min != float64(model[0].Seq) || b.Max != float64(i) {
			t.Fatalf("after %d emits: query sees count %d range [%g,%g], want %d [%d,%d]",
				i, b.Count, b.Min, b.Max, len(model), model[0].Seq, i)
		}
	}
	rec := Record{Kind: KindRequest, Name: "n"}
	if allocs := testing.AllocsPerRun(100, func() { s.Emit(rec) }); allocs != 0 {
		t.Fatalf("Emit into a full ring allocates %.0f times per call, want 0", allocs)
	}
}

func TestStoreTail(t *testing.T) {
	s := mustOpen(t, "", StoreConfig{})
	defer s.Close()

	// A context that expires with nothing new is a normal empty poll.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	recs, cur, err := s.Tail(ctx, 0, 0)
	cancel()
	if err != nil || len(recs) != 0 || cur != 0 {
		t.Fatalf("empty tail = %d recs, cursor %d, err %v; want 0, 0, nil", len(recs), cur, err)
	}

	// A record emitted while a tail is parked wakes it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(10 * time.Millisecond)
		s.Emit(Record{Kind: KindPublish, Epoch: 3})
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	recs, cur, err = s.Tail(ctx2, 0, 0)
	<-done
	if err != nil || len(recs) != 1 || cur != 1 {
		t.Fatalf("tail after emit = %d recs, cursor %d, err %v; want 1, 1, nil", len(recs), cur, err)
	}
	if recs[0].Kind != KindPublish || recs[0].Epoch != 3 {
		t.Fatalf("tailed record = %+v, want publish epoch 3", recs[0])
	}

	// Tail with a satisfied cursor returns immediately.
	recs, cur, err = s.Tail(context.Background(), 0, 0)
	if err != nil || len(recs) != 1 || cur != 1 {
		t.Fatalf("tail with backlog = %d recs, cursor %d, err %v; want 1, 1, nil", len(recs), cur, err)
	}
}

func TestStoreClosedErrors(t *testing.T) {
	s := mustOpen(t, "", StoreConfig{})
	s.Emit(Record{Kind: KindRequest})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := s.ReadSince(0, 0); err != ErrStoreClosed {
		t.Fatalf("ReadSince on closed store: %v, want ErrStoreClosed", err)
	}
	if _, _, err := s.Tail(context.Background(), 0, 0); err != ErrStoreClosed {
		t.Fatalf("Tail on closed store: %v, want ErrStoreClosed", err)
	}
	s.Emit(Record{Kind: KindRequest}) // must not panic or deadlock
}

func TestStoreWritableProbe(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, StoreConfig{})
	defer s.Close()
	if err := s.Writable(); err != nil {
		t.Fatalf("fresh store not writable: %v", err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatalf("chmod: %v", err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Geteuid() == 0 {
		t.Skip("running as root: read-only directory modes are not enforced")
	}
	if err := s.Writable(); err == nil {
		t.Fatal("Writable succeeded on a read-only directory")
	}
}
