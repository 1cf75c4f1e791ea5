package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pcf/internal/core"
	"pcf/internal/durable"
)

// Envelope is the epoch-stamped wrapper around a serialized plan. It
// is both the on-disk checkpoint format and the fleet wire format: the
// planner publishes envelopes over /v1/fleet/plan, replicas decode
// them with DecodePlan and re-validate locally before installing. A
// published or sent envelope is immutable (pcflint's mutafterpub
// analyzer enforces this outside the defining package) — build a new
// one instead of editing in place.
type Envelope struct {
	Epoch       uint64          `json:"epoch"`
	Fingerprint string          `json:"fingerprint"`
	SavedAt     time.Time       `json:"saved_at"`
	Scheme      string          `json:"scheme"`
	Plan        json.RawMessage `json:"plan"`
}

// NewEnvelope wraps a plan for checkpointing or fleet distribution.
func NewEnvelope(epoch uint64, fingerprint string, plan *core.Plan) (*Envelope, error) {
	var planBuf bytes.Buffer
	if err := plan.WriteJSON(&planBuf); err != nil {
		return nil, fmt.Errorf("serve: serializing plan for envelope: %w", err)
	}
	return &Envelope{
		Epoch:       epoch,
		Fingerprint: fingerprint,
		SavedAt:     time.Now().UTC(),
		Scheme:      plan.Scheme,
		Plan:        json.RawMessage(planBuf.Bytes()),
	}, nil
}

// Encode renders the envelope as indented JSON.
func (e *Envelope) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: encoding envelope: %w", err)
	}
	return data, nil
}

// DecodeEnvelope parses an envelope from its JSON encoding. A torn or
// truncated byte stream fails here, before any plan state is touched.
func DecodeEnvelope(data []byte) (*Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("serve: decoding envelope: %w", err)
	}
	if len(e.Plan) == 0 {
		return nil, errors.New("serve: envelope carries no plan")
	}
	return &e, nil
}

// DecodePlan deserializes the enclosed plan against the instance,
// after checking the envelope was built for that instance. The
// returned plan is structurally sound but NOT validated — callers that
// serve it must run it through the registry's validating publish path.
func (e *Envelope) DecodePlan(in *core.Instance, fingerprint string) (*core.Plan, error) {
	if e.Fingerprint != fingerprint {
		return nil, fmt.Errorf("serve: instance fingerprint mismatch: envelope %s, instance %s",
			e.Fingerprint, fingerprint)
	}
	return core.ReadPlanJSON(bytes.NewReader(e.Plan), in)
}

// Store persists validated plans as versioned JSON snapshots so a
// restarted daemon recovers its last good epoch instead of re-solving.
// The crash-safety discipline is the classic one: write to a temp file
// in the same directory, fsync the file, rename it into place, fsync
// the directory. A snapshot that fails to load is quarantined (renamed
// to *.corrupt) rather than crash-looped on.
type Store struct {
	dir string
	// fingerprint ties snapshots to the instance they were solved for;
	// a snapshot from a different topology or demand matrix is treated
	// as corrupt rather than deserialized into nonsense.
	fingerprint string
	// retain, when positive, bounds accumulation: after each Save only
	// the newest retain snapshots and the newest retain quarantined
	// files are kept.
	retain int
}

// NewStore opens (creating if needed) the checkpoint directory for the
// given instance.
func NewStore(dir string, in *core.Instance) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state dir: %w", err)
	}
	return &Store{dir: dir, fingerprint: Fingerprint(in)}, nil
}

// SetRetention bounds how many snapshots and quarantined files Save
// leaves behind (keep <= 0 means unlimited).
func (s *Store) SetRetention(keep int) { s.retain = keep }

// Writable probes whether the checkpoint directory still accepts
// writes — the readiness report surfaces the result so load balancers
// can evict a replica whose disk went read-only before its next Save
// silently degrades durability.
func (s *Store) Writable() error { return durable.Probe(s.dir) }

// Fingerprint is a cheap structural hash of an instance: enough to
// reject snapshots from a different topology, demand matrix, tunnel
// set, or LS catalog, without serializing the whole instance.
func Fingerprint(in *core.Instance) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "nodes=%d links=%d arcs=%d\n",
		in.Graph.NumNodes(), in.Graph.NumLinks(), in.Graph.NumArcs())
	for _, l := range in.Graph.Links() {
		fmt.Fprintf(h, "link %d %d %g\n", l.A, l.B, l.Capacity)
	}
	for _, p := range in.DemandPairs() {
		fmt.Fprintf(h, "demand %d %d %g\n", p.Src, p.Dst, in.TM.At(p))
	}
	fmt.Fprintf(h, "tunnels=%d lss=%d obj=%s\n",
		in.Tunnels.Len(), len(in.LSs), in.Objective)
	for _, q := range in.LSs {
		fmt.Fprintf(h, "ls %d %d %v cond=%v\n", q.Pair.Src, q.Pair.Dst, q.Hops, q.Cond)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func snapshotName(epoch uint64) string { return fmt.Sprintf("plan-%012d.json", epoch) }

func (s *Store) snapshotPath(epoch uint64) string {
	return filepath.Join(s.dir, snapshotName(epoch))
}

// isSnapshot reports whether a directory entry is a plan snapshot. The
// zero-padded epoch makes name order epoch order.
func isSnapshot(name string) bool {
	return strings.HasPrefix(name, "plan-") && strings.HasSuffix(name, ".json")
}

// Save checkpoints the plan under the given epoch, durably
// (durable.WriteFile): a crash at any point leaves either the previous
// set of snapshots or the previous set plus this complete one — never
// a torn file under the final name. When retention is configured, old
// snapshots and quarantined files beyond the bound are deleted after
// the new snapshot is durable.
func (s *Store) Save(epoch uint64, plan *core.Plan) error {
	env, err := NewEnvelope(epoch, s.fingerprint, plan)
	if err != nil {
		return err
	}
	data, err := env.Encode()
	if err != nil {
		return err
	}
	err = durable.WriteFile(s.dir, "plan-*.tmp", snapshotName(epoch), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	if err := durable.Retain(s.dir, s.retain, isSnapshot); err != nil {
		return fmt.Errorf("serve: applying checkpoint retention: %w", err)
	}
	return nil
}

// ErrNoSnapshot reports that the store holds no loadable snapshot.
var ErrNoSnapshot = errors.New("serve: no usable snapshot in state dir")

// LoadLatest returns the newest snapshot that decodes, matches the
// instance fingerprint, and deserializes into a plan. Snapshots that
// fail any of those steps are quarantined — renamed to *.corrupt so
// the next restart does not trip over them again — and the scan
// continues with the next-older epoch. Validation of the recovered
// plan is the registry's job; the store only guarantees structural
// integrity.
func (s *Store) LoadLatest(in *core.Instance, logf func(string, ...any)) (uint64, *core.Plan, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, nil, fmt.Errorf("serve: reading state dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); isSnapshot(n) {
			names = append(names, n)
		}
	}
	// Newest epoch first; the zero-padded name makes this lexicographic.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		epoch, plan, err := s.loadOne(path, in)
		if err == nil {
			return epoch, plan, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			continue // raced with cleanup; nothing to quarantine
		}
		logf("serve: quarantining snapshot %s: %v", name, err)
		if qerr := durable.Quarantine(path); qerr != nil {
			logf("serve: quarantine rename failed for %s: %v", name, qerr)
		}
	}
	return 0, nil, ErrNoSnapshot
}

func (s *Store) loadOne(path string, in *core.Instance) (uint64, *core.Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	env, err := DecodeEnvelope(data)
	if err != nil {
		return 0, nil, err
	}
	plan, err := env.DecodePlan(in, s.fingerprint)
	if err != nil {
		return 0, nil, err
	}
	return env.Epoch, plan, nil
}
