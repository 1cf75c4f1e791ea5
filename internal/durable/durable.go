// Package durable is the one crash-safe file discipline the checkpoint
// store and the telemetry store share: a file appears under its final
// name only complete and fsync'd, a damaged file is renamed aside
// rather than crash-looped on, and retention keeps the newest K of a
// name class. Errors name the step that failed; callers add their own
// package prefix.
package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

const corruptSuffix = ".corrupt" // marks a quarantined file

// WriteFile writes dir/final durably: temp file in the same directory,
// write, fsync, close, atomic rename, directory fsync. A crash at any
// point leaves either no file under the final name or the complete
// one — never a torn file.
func WriteFile(dir, tmpPattern, final string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	// Best-effort cleanup if any later step fails; after a successful
	// rename the temp name no longer exists and the remove is a no-op.
	defer os.Remove(tmpName)
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("writing %s: %w", final, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("syncing %s: %w", final, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", final, err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, final)); err != nil {
		return fmt.Errorf("publishing %s: %w", final, err)
	}
	if err := SyncDir(dir); err != nil {
		return fmt.Errorf("syncing dir: %w", err)
	}
	return nil
}

// SyncDir fsyncs a directory so a just-renamed or just-removed entry
// is durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Retain deletes all but the newest keep files whose name match
// accepts and all but the newest keep quarantined files, then fsyncs
// the directory so the deletions are durable. Newest is last in name
// order (os.ReadDir's), so names must sort by age; keep <= 0 keeps all.
func Retain(dir string, keep int, match func(name string) bool) error {
	if keep <= 0 {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("reading dir: %w", err)
	}
	var matched, corrupt []string
	for _, e := range entries {
		switch n := e.Name(); {
		case match(n):
			matched = append(matched, n)
		case strings.HasSuffix(n, corruptSuffix):
			corrupt = append(corrupt, n)
		}
	}
	deleted := 0
	for _, group := range [][]string{matched, corrupt} {
		for _, name := range group[:max(0, len(group)-keep)] {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("deleting %s: %w", name, err)
			}
			deleted++
		}
	}
	if deleted > 0 {
		if err := SyncDir(dir); err != nil {
			return fmt.Errorf("syncing dir after retention: %w", err)
		}
	}
	return nil
}

// Probe reports whether the directory still accepts writes, by
// creating and removing a temp file in it.
func Probe(dir string) error {
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// Quarantine renames a damaged file to *.corrupt so the next open does
// not trip over it again.
func Quarantine(path string) error {
	return os.Rename(path, path+corruptSuffix)
}
