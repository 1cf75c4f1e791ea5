package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pcf/internal/durable"
)

// StoreConfig parameterizes a Store. The zero value of every field has
// a serviceable default.
type StoreConfig struct {
	// SegmentRecords seals the active segment after this many records
	// (default 1024).
	SegmentRecords int
	// RetainSegments keeps only the newest K sealed segments and the
	// newest K quarantined (*.corrupt) files (default 64; negative
	// disables retention). The open segment never counts against it.
	RetainSegments int
	// MemoryRecords bounds the in-memory ring of a memory-only store
	// (dir "") — oldest records are dropped beyond it (default
	// 4×SegmentRecords). Ignored for persistent stores, whose ring
	// holds exactly the open segment.
	MemoryRecords int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.SegmentRecords <= 0 {
		c.SegmentRecords = 1024
	}
	if c.RetainSegments == 0 {
		c.RetainSegments = 64
	}
	if c.MemoryRecords <= 0 {
		c.MemoryRecords = 4 * c.SegmentRecords
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// StoreStats is a point-in-time operational snapshot of a store.
type StoreStats struct {
	Dir         string `json:"dir,omitempty"`
	NextSeq     uint64 `json:"next_seq"`
	Appended    uint64 `json:"appended"`
	Sealed      uint64 `json:"sealed_segments"`
	Quarantined uint64 `json:"quarantined_segments"`
	Salvaged    uint64 `json:"salvaged_records"`
	Dropped     uint64 `json:"dropped_records"`
	WriteErrors uint64 `json:"write_errors"`
}

// ErrStoreClosed reports an append or read against a closed store.
var ErrStoreClosed = errors.New("telemetry: store closed")

// Store is the append-only segmented record store. Records are
// appended to an active `seg-<firstseq>.jsonl.open` temp file (one
// JSON record per line) and mirrored in memory; when the segment
// fills, it is sealed — fsync, atomic rename to `seg-<firstseq>.jsonl`,
// directory fsync — and retention prunes sealed segments beyond the
// newest K. Opening a directory recovers crash state: the decodable
// prefix of a torn open segment is salvaged into a sealed segment, and
// sealed segments that no longer decode are quarantined to *.corrupt.
//
// A Store with an empty dir is memory-only: a bounded ring with the
// same Emit/Query/Tail surface and no persistence.
type Store struct {
	dir string
	cfg StoreConfig

	mu        sync.Mutex
	f         *os.File
	w         *bufio.Writer
	openStart uint64 // seq of the open segment's first record
	openCount int
	nextSeq   uint64
	mem       []Record // open-segment mirror (disk) or bounded ring (memory-only)
	memHead   int      // index of the oldest record in mem; moves only once a full memory-only ring wraps
	memStart  uint64   // seq of the oldest record in mem (valid when len(mem) > 0)
	notify    chan struct{}
	tailing   bool // a Tail holds the current notify channel
	closed    bool

	appended    uint64
	sealedN     uint64
	quarantined uint64
	salvagedN   uint64
	dropped     uint64
	writeErrors uint64

	done        chan struct{}
	flusherDone chan struct{}
}

const (
	segPrefix  = "seg-"
	segSuffix  = ".jsonl"
	openSuffix = ".open"
)

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, firstSeq, segSuffix)
}

// isSealed reports whether a file name is a sealed segment's.
func isSealed(name string) bool {
	return strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix)
}

// segStart parses the first-record sequence number out of a sealed
// segment file name.
func segStart(name string) (uint64, bool) {
	if !isSealed(name) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open opens (creating if needed) a telemetry store rooted at dir,
// running crash recovery first. An empty dir opens a memory-only
// store.
func Open(dir string, cfg StoreConfig) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		dir:         dir,
		cfg:         cfg,
		nextSeq:     1,
		notify:      make(chan struct{}),
		done:        make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	if dir == "" {
		close(s.flusherDone) // no flusher to join
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: creating store dir: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	go s.flushLoop()
	return s, nil
}

// recover scans the store directory: torn open segments are salvaged
// (decodable prefix re-sealed, the rest discarded), sealed segments
// that fail to decode are quarantined to *.corrupt, and the next
// sequence number resumes after the newest surviving record.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("telemetry: reading store dir: %w", err)
	}
	var maxSeq uint64
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(s.dir, name)
		switch {
		case strings.HasSuffix(name, segSuffix+openSuffix):
			// A crash left an open segment behind. Salvage the
			// decodable prefix into a sealed segment.
			recs, _ := decodeSegment(path)
			if len(recs) == 0 {
				s.quarantine(path)
				continue
			}
			final := strings.TrimSuffix(path, openSuffix)
			if err := writeSealed(final, recs); err != nil {
				s.cfg.Logf("telemetry: salvaging %s failed: %v", name, err)
				s.quarantine(path)
				continue
			}
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				s.cfg.Logf("telemetry: removing salvaged open segment %s: %v", name, err)
			}
			s.salvagedN += uint64(len(recs))
			s.sealedN++
			if last := recs[len(recs)-1].Seq; last > maxSeq {
				maxSeq = last
			}
			s.cfg.Logf("telemetry: salvaged %d records from torn segment %s", len(recs), name)
		case isSealed(name):
			recs, derr := decodeSegment(path)
			if derr != nil || len(recs) == 0 {
				s.cfg.Logf("telemetry: quarantining undecodable segment %s: %v", name, derr)
				s.quarantine(path)
				continue
			}
			if last := recs[len(recs)-1].Seq; last > maxSeq {
				maxSeq = last
			}
		}
	}
	if err := durable.SyncDir(s.dir); err != nil {
		return fmt.Errorf("telemetry: syncing store dir after recovery: %w", err)
	}
	s.nextSeq = maxSeq + 1
	return s.retainLocked()
}

// quarantine renames a damaged file to *.corrupt so the next open does
// not trip over it again.
func (s *Store) quarantine(path string) {
	if err := durable.Quarantine(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.cfg.Logf("telemetry: quarantine rename of %s failed: %v", path, err)
		return
	}
	s.quarantined++
}

// decodeSegment reads a segment file, returning the longest decodable
// prefix of records and an error if any trailing content failed to
// decode.
func decodeSegment(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return recs, fmt.Errorf("undecodable record after %d good ones: %w", len(recs), err)
		}
		if r.Seq == 0 {
			return recs, fmt.Errorf("record without sequence number after %d good ones", len(recs))
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return recs, err
	}
	return recs, nil
}

// writeSealed writes records to a sealed segment durably.
func writeSealed(path string, recs []Record) error {
	return durable.WriteFile(filepath.Dir(path), "seg-*.tmp", filepath.Base(path), func(f io.Writer) error {
		w := bufio.NewWriter(f)
		for _, r := range recs {
			data, err := json.Marshal(r)
			if err != nil {
				return err
			}
			if _, err := w.Write(append(data, '\n')); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}

// flushInterval is the background fsync cadence for a persistent
// store's active segment.
const flushInterval = time.Second

// flushLoop flushes and fsyncs the active segment every flushInterval,
// so a crash loses at most that much of the buffered records. It is
// joined by Close via the done/flusherDone pair.
func (s *Store) flushLoop() {
	defer close(s.flusherDone)
	ticker := time.NewTicker(flushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			if err := s.Sync(); err != nil && !errors.Is(err, ErrStoreClosed) {
				s.mu.Lock()
				s.writeErrors++
				s.mu.Unlock()
				s.cfg.Logf("telemetry: background flush: %v", err)
			}
		}
	}
}

// Emit appends a record to the store, stamping its time (when zero)
// and sequence number. Append errors degrade durability, never the
// caller: they are logged and counted, and the record stays queryable
// from memory. Emit implements Emitter.
func (s *Store) Emit(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if r.Time.IsZero() {
		r.Time = time.Now().UTC()
	}
	r.Seq = s.nextSeq
	s.nextSeq++
	s.appended++

	if s.dir != "" {
		if err := s.appendDiskLocked(r); err != nil {
			s.writeErrors++
			s.cfg.Logf("telemetry: appending record %d: %v", r.Seq, err)
		}
	}
	if s.dir == "" && len(s.mem) == s.cfg.MemoryRecords {
		// Full ring: the new record takes the oldest one's slot.
		s.mem[s.memHead] = r
		s.memHead = (s.memHead + 1) % len(s.mem)
		s.memStart++
		s.dropped++
	} else {
		if len(s.mem) == 0 {
			s.memStart = r.Seq
		}
		s.mem = append(s.mem, r)
	}

	// Wake tail waiters; with none parked the channel stays as it is.
	if s.tailing {
		close(s.notify)
		s.notify = make(chan struct{})
		s.tailing = false
	}

	if s.dir != "" && s.openCount >= s.cfg.SegmentRecords {
		if err := s.sealLocked(); err != nil {
			s.writeErrors++
			s.cfg.Logf("telemetry: sealing segment: %v", err)
		}
	}
}

// appendDiskLocked writes one record line to the active segment,
// opening a fresh one if needed. Caller holds mu.
func (s *Store) appendDiskLocked(r Record) error {
	if s.f == nil {
		path := filepath.Join(s.dir, segName(r.Seq)+openSuffix)
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		s.f = f
		s.w = bufio.NewWriter(f)
		s.openStart = r.Seq
		s.openCount = 0
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(append(data, '\n')); err != nil {
		return err
	}
	s.openCount++
	return nil
}

// sealLocked closes the active segment durably: flush, fsync, atomic
// rename from *.open to the final name, directory fsync, then
// retention. Caller holds mu.
func (s *Store) sealLocked() error {
	if s.f == nil {
		return nil
	}
	openPath := filepath.Join(s.dir, segName(s.openStart)+openSuffix)
	finalPath := filepath.Join(s.dir, segName(s.openStart))
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.f, s.w = nil, nil
	s.openCount = 0
	if err := os.Rename(openPath, finalPath); err != nil {
		return err
	}
	if err := durable.SyncDir(s.dir); err != nil {
		return err
	}
	s.sealedN++
	// The sealed segment is on disk; the memory mirror resets to track
	// only the (not yet started) next open segment.
	s.mem = s.mem[:0]
	return s.retainLocked()
}

// retainLocked prunes sealed segments and quarantined files beyond the
// newest RetainSegments (the zero-padded seq makes name order age
// order). Caller holds mu (or runs during Open, before concurrency
// starts).
func (s *Store) retainLocked() error {
	if s.dir == "" {
		return nil
	}
	if err := durable.Retain(s.dir, s.cfg.RetainSegments, isSealed); err != nil {
		return fmt.Errorf("telemetry: retention: %w", err)
	}
	return nil
}

// Sync flushes and fsyncs the active segment. The background flusher
// calls it on its cadence; callers that need a durability point (e.g.
// a batch ingest about to exit) may call it directly.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	if s.f == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close seals the active segment and stops the background flusher.
// Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	close(s.done)
	<-s.flusherDone

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sealLocked(); err != nil {
		s.cfg.Logf("telemetry: sealing on close: %v", err)
		return err
	}
	return nil
}

// Writable probes whether the store directory still accepts writes;
// /healthz surfaces the result. A memory-only store is always
// writable.
func (s *Store) Writable() error {
	if s.dir == "" {
		return nil
	}
	return durable.Probe(s.dir)
}

// Persistent reports whether the store writes segments to disk.
func (s *Store) Persistent() bool { return s.dir != "" }

// Stats snapshots the store's operational counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Dir:         s.dir,
		NextSeq:     s.nextSeq,
		Appended:    s.appended,
		Sealed:      s.sealedN,
		Quarantined: s.quarantined,
		Salvaged:    s.salvagedN,
		Dropped:     s.dropped,
		WriteErrors: s.writeErrors,
	}
}

// scanLocked streams every stored record with Seq > after, in sequence
// order: sealed segments from disk first, then the in-memory mirror.
// fn returning false stops the scan. Caller holds mu.
func (s *Store) scanLocked(after uint64, fn func(Record) bool) error {
	if s.dir != "" {
		entries, err := os.ReadDir(s.dir)
		if err != nil {
			return fmt.Errorf("telemetry: reading store dir: %w", err)
		}
		var names []string
		for _, e := range entries {
			n := e.Name()
			if strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for i, name := range names {
			// Skip a segment wholesale when the next segment starts at
			// or before the cursor — every record in it is older.
			if i+1 < len(names) {
				if next, ok := segStart(names[i+1]); ok && next <= after+1 {
					continue
				}
			} else if len(s.mem) > 0 && s.memStart <= after+1 {
				continue
			}
			recs, derr := decodeSegment(filepath.Join(s.dir, name))
			if derr != nil {
				// A sealed segment going bad under a live store is disk
				// trouble; surface the salvageable prefix and log.
				s.cfg.Logf("telemetry: reading sealed segment %s: %v", name, derr)
			}
			for _, r := range recs {
				if r.Seq <= after {
					continue
				}
				if r.Seq >= s.memStart && len(s.mem) > 0 {
					continue // open-segment records come from memory
				}
				if !fn(r) {
					return nil
				}
			}
		}
	}
	for _, part := range [2][]Record{s.mem[s.memHead:], s.mem[:s.memHead]} {
		for _, r := range part {
			if r.Seq <= after {
				continue
			}
			if !fn(r) {
				return nil
			}
		}
	}
	return nil
}

// ReadSince returns up to limit records with Seq > after in sequence
// order, plus the cursor to pass next (the last returned record's
// Seq, or after when nothing new exists). limit <= 0 means no bound.
func (s *Store) ReadSince(after uint64, limit int) ([]Record, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, after, ErrStoreClosed
	}
	var out []Record
	err := s.scanLocked(after, func(r Record) bool {
		out = append(out, r)
		return limit <= 0 || len(out) < limit
	})
	next := after
	if len(out) > 0 {
		next = out[len(out)-1].Seq
	}
	return out, next, err
}

// Tail long-polls for records with Seq > after: it returns immediately
// when some exist, otherwise blocks until a new record arrives or ctx
// ends (returning an empty batch and the unchanged cursor — a timeout
// is a normal empty poll, not an error).
func (s *Store) Tail(ctx context.Context, after uint64, limit int) ([]Record, uint64, error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, after, ErrStoreClosed
		}
		latest := s.nextSeq - 1
		ch := s.notify
		s.tailing = s.tailing || latest <= after
		s.mu.Unlock()
		if latest > after {
			return s.ReadSince(after, limit)
		}
		select {
		case <-ctx.Done():
			return nil, after, nil
		case <-ch:
		}
	}
}
