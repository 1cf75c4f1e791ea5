package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pcf/internal/linsolve"
	"pcf/internal/routing"
	"pcf/internal/telemetry"
)

// TestStoreRoundTrip saves two epochs and checks LoadLatest returns
// the newest with the plan's value intact.
func TestStoreRoundTrip(t *testing.T) {
	in, plan := testPlan(t)
	st, err := NewStore(t.TempDir(), in)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if err := st.Save(1, plan); err != nil {
		t.Fatalf("Save(1): %v", err)
	}
	if err := st.Save(2, plan); err != nil {
		t.Fatalf("Save(2): %v", err)
	}
	epoch, got, err := st.LoadLatest(in, t.Logf)
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("epoch = %d, want 2", epoch)
	}
	if math.Abs(got.Value-plan.Value) > 1e-12 {
		t.Fatalf("recovered value %g, want %g", got.Value, plan.Value)
	}
	if got.Scheme != plan.Scheme {
		t.Fatalf("recovered scheme %q, want %q", got.Scheme, plan.Scheme)
	}
}

// TestStoreQuarantinesCorrupt corrupts the newest snapshot and checks
// recovery falls back to the older epoch while the bad file is renamed
// to *.corrupt — restart never crash-loops on a torn snapshot.
func TestStoreQuarantinesCorrupt(t *testing.T) {
	in, plan := testPlan(t)
	dir := t.TempDir()
	st, err := NewStore(dir, in)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if err := st.Save(1, plan); err != nil {
		t.Fatalf("Save(1): %v", err)
	}
	if err := st.Save(2, plan); err != nil {
		t.Fatalf("Save(2): %v", err)
	}
	newest := st.snapshotPath(2)
	if err := os.WriteFile(newest, []byte("{torn"), 0o644); err != nil {
		t.Fatalf("corrupting snapshot: %v", err)
	}

	epoch, _, err := st.LoadLatest(in, t.Logf)
	if err != nil {
		t.Fatalf("LoadLatest after corruption: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("epoch = %d, want fallback to 1", epoch)
	}
	if _, err := os.Stat(newest + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}
	if _, err := os.Stat(newest); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt snapshot still present under original name: %v", err)
	}

	// A second scan must not trip over the quarantined file.
	if epoch, _, err := st.LoadLatest(in, t.Logf); err != nil || epoch != 1 {
		t.Fatalf("second LoadLatest = (%d, %v), want (1, nil)", epoch, err)
	}
}

// TestStoreRejectsForeignFingerprint checks a snapshot written for a
// different instance is quarantined instead of deserialized into
// nonsense.
func TestStoreRejectsForeignFingerprint(t *testing.T) {
	in, plan := testPlan(t)
	dir := t.TempDir()
	st, err := NewStore(dir, in)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if err := st.Save(1, plan); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// Same dir, different instance: a rebuilt copy fingerprints the
	// same, a scaled demand matrix does not.
	other := testInstance()
	if Fingerprint(in) != Fingerprint(other) {
		t.Fatalf("identical instances should share a fingerprint")
	}
	other.TM = other.TM.Scale(0.5)
	if Fingerprint(in) == Fingerprint(other) {
		t.Fatalf("scaled instance should change the fingerprint")
	}
	st2, err := NewStore(dir, other)
	if err != nil {
		t.Fatalf("NewStore(other): %v", err)
	}
	if _, _, err := st2.LoadLatest(other, t.Logf); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("LoadLatest with foreign fingerprint = %v, want ErrNoSnapshot", err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("quarantined files = %v (err %v), want exactly one", entries, err)
	}
	if !strings.HasSuffix(entries[0], ".json.corrupt") {
		t.Fatalf("quarantine name %q, want *.json.corrupt", entries[0])
	}
}

// TestStoreEmpty checks the empty-dir case is the typed ErrNoSnapshot.
func TestStoreEmpty(t *testing.T) {
	in, _ := testPlan(t)
	st, err := NewStore(t.TempDir(), in)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if _, _, err := st.LoadLatest(in, t.Logf); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("LoadLatest on empty dir = %v, want ErrNoSnapshot", err)
	}
}

// TestStoreRetention checks Save-triggered retention: only the newest
// K snapshots and the newest K quarantined files survive, the newest
// epoch stays loadable, and the bound holds as epochs keep arriving.
func TestStoreRetention(t *testing.T) {
	in, plan := testPlan(t)
	dir := t.TempDir()
	st, err := NewStore(dir, in)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	st.SetRetention(3)

	// Seed some quarantined wreckage older than any real snapshot.
	for i := 0; i < 5; i++ {
		name := filepath.Join(dir, fmt.Sprintf("plan-%012d.json.corrupt", i))
		if err := os.WriteFile(name, []byte("{torn"), 0o644); err != nil {
			t.Fatalf("seeding corrupt file: %v", err)
		}
	}
	for epoch := uint64(10); epoch < 22; epoch++ {
		if err := st.Save(epoch, plan); err != nil {
			t.Fatalf("Save(%d): %v", epoch, err)
		}
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, "plan-*.json"))
	if len(snaps) != 3 {
		t.Fatalf("snapshots after retention = %d (%v), want 3", len(snaps), snaps)
	}
	corrupt, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(corrupt) != 3 {
		t.Fatalf("quarantined after retention = %d (%v), want 3", len(corrupt), corrupt)
	}
	// The survivors are the NEWEST of each class.
	for _, epoch := range []uint64{19, 20, 21} {
		if _, err := os.Stat(st.snapshotPath(epoch)); err != nil {
			t.Fatalf("newest snapshot %d missing: %v", epoch, err)
		}
	}
	epoch, _, err := st.LoadLatest(in, t.Logf)
	if err != nil || epoch != 21 {
		t.Fatalf("LoadLatest after retention = (%d, %v), want (21, nil)", epoch, err)
	}

	// Retention off (<=0) keeps everything.
	st.SetRetention(0)
	if err := st.Save(22, plan); err != nil {
		t.Fatalf("Save(22): %v", err)
	}
	snaps, _ = filepath.Glob(filepath.Join(dir, "plan-*.json"))
	if len(snaps) != 4 {
		t.Fatalf("snapshots with retention off = %d, want 4", len(snaps))
	}
}

// TestStoreWritable checks the readiness probe distinguishes a healthy
// state dir from one the daemon can no longer write.
func TestStoreWritable(t *testing.T) {
	in, _ := testPlan(t)
	dir := t.TempDir()
	st, err := NewStore(dir, in)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if err := st.Writable(); err != nil {
		t.Fatalf("Writable on fresh dir: %v", err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatalf("chmod: %v", err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Getuid() == 0 {
		t.Skip("running as root: read-only dir permissions are not enforced")
	}
	if err := st.Writable(); err == nil {
		t.Fatal("Writable on read-only dir: want error")
	}
}

// TestRecoverCanceledMidSweepKeepsSnapshot: a context cancelled from
// inside the validation sweep means the sweep did not finish, not that
// the plan failed. Recover must surface the context error (never
// ErrValidation), leave the snapshot where it is — no quarantine, no
// "invalid" record — and a second Recover with a live context must
// publish that very snapshot.
func TestRecoverCanceledMidSweepKeepsSnapshot(t *testing.T) {
	// Single-link scenarios must make row updates and consult the update
	// hook, which the shared ring4 plan's never do.
	in, plan := sprintPlan(t)
	dir := t.TempDir()
	st, err := NewStore(dir, in)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if err := st.Save(7, plan); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var mu sync.Mutex
	var published []telemetry.Record
	reg := NewRegistry(st, t.Logf)
	reg.Telemetry = telemetry.EmitterFunc(func(rec telemetry.Record) {
		if rec.Kind == telemetry.KindPublish {
			mu.Lock()
			published = append(published, rec)
			mu.Unlock()
		}
	})
	publishRecords := func() []telemetry.Record {
		mu.Lock()
		defer mu.Unlock()
		return append([]telemetry.Record(nil), published...)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	routing.SweepUpdateFault = func([]linsolve.RowUpdate) error {
		if calls.Add(1) == 1 {
			cancel()
		}
		return nil
	}
	defer func() { routing.SweepUpdateFault = nil }()

	_, err = reg.Recover(ctx, in)
	if calls.Load() == 0 {
		t.Fatal("the sweep never reached a rank-k update: nothing cancelled it")
	}
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrValidation) {
		t.Fatalf("Recover under a mid-sweep cancel = %v, want context.Canceled and not ErrValidation", err)
	}
	if _, err := os.Stat(st.snapshotPath(7)); err != nil {
		t.Fatalf("snapshot gone after a cancelled recovery: %v", err)
	}
	if quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(quarantined) != 0 {
		t.Fatalf("cancelled recovery quarantined %v", quarantined)
	}
	if recs := publishRecords(); len(recs) != 0 {
		t.Fatalf("cancelled recovery emitted publish records: %+v", recs)
	}
	if reg.Epoch() != 0 {
		t.Fatalf("cancelled recovery published epoch %d", reg.Epoch())
	}

	// The same cancellation through Publish: no "invalid" record either.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	calls.Store(0)
	cancel = cancel2
	if _, err := reg.Publish(ctx2, plan); !errors.Is(err, context.Canceled) || errors.Is(err, ErrValidation) {
		t.Fatalf("Publish under a mid-sweep cancel = %v, want context.Canceled and not ErrValidation", err)
	}
	if recs := publishRecords(); len(recs) != 0 {
		t.Fatalf("cancelled publish emitted publish records (an \"invalid\" one?): %+v", recs)
	}

	routing.SweepUpdateFault = nil
	pub, err := reg.Recover(context.Background(), in)
	if err != nil {
		t.Fatalf("second Recover with a live context: %v", err)
	}
	if pub.Epoch != 7 || reg.Epoch() != 7 {
		t.Fatalf("recovered epoch %d (registry %d), want 7", pub.Epoch, reg.Epoch())
	}
}
