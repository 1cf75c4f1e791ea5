package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// names lists the directory's entries, sorted.
func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func TestWriteFilePublishesCompleteFile(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(dir, "x-*.tmp", "x.dat", writeString("payload")); err != nil {
		t.Fatal(err)
	}
	if got := names(t, dir); !slices.Equal(got, []string{"x.dat"}) {
		t.Fatalf("directory holds %v, want only the published file", got)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "x.dat")); err != nil || string(b) != "payload" {
		t.Fatalf("published %q (%v), want %q", b, err, "payload")
	}
}

// TestWriteFileFailuresLeaveNothing: a write that fails — in the
// caller's callback, or at the rename, here because a directory squats
// on the final name — leaves no temp file behind and no file under the
// final name, and its error names the step.
func TestWriteFileFailuresLeaveNothing(t *testing.T) {
	boom := errors.New("boom")
	t.Run("write", func(t *testing.T) {
		dir := t.TempDir()
		err := WriteFile(dir, "x-*.tmp", "x.dat", func(w io.Writer) error {
			if _, err := io.WriteString(w, "partial"); err != nil {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "writing x.dat") {
			t.Fatalf("error %v: want the callback's, naming the write step", err)
		}
		if got := names(t, dir); len(got) != 0 {
			t.Fatalf("failed write left %v", got)
		}
	})
	t.Run("rename", func(t *testing.T) {
		dir := t.TempDir()
		squat := filepath.Join(dir, "x.dat")
		if err := os.Mkdir(squat, 0o755); err != nil {
			t.Fatal(err)
		}
		err := WriteFile(dir, "x-*.tmp", "x.dat", writeString("payload"))
		if err == nil || !strings.HasPrefix(err.Error(), "publishing x.dat") {
			t.Fatalf("error %v: want one naming the publish step", err)
		}
		if got := names(t, dir); !slices.Equal(got, []string{"x.dat"}) {
			t.Fatalf("failed rename left %v, want only the squatting directory", got)
		}
		if fi, err := os.Stat(squat); err != nil || !fi.IsDir() {
			t.Fatalf("the squatting directory was replaced: %v", err)
		}
	})
	t.Run("create", func(t *testing.T) {
		err := WriteFile(filepath.Join(t.TempDir(), "missing"), "x-*.tmp", "x.dat", writeString("payload"))
		if err == nil || !strings.HasPrefix(err.Error(), "creating temp file") {
			t.Fatalf("error %v: want one naming the temp-file step", err)
		}
	})
}

func TestRetainKeepsNewest(t *testing.T) {
	isSeg := func(name string) bool { return strings.HasSuffix(name, ".seg") }
	fill := func(t *testing.T) string {
		dir := t.TempDir()
		for _, n := range []string{"001.seg", "002.seg", "003.seg", "004.seg", "005.seg",
			"001.seg.corrupt", "002.seg.corrupt", "003.seg.corrupt", "notes.txt"} {
			if err := os.WriteFile(filepath.Join(dir, n), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	dir := fill(t)
	if err := Retain(dir, 2, isSeg); err != nil {
		t.Fatal(err)
	}
	want := []string{"002.seg.corrupt", "003.seg.corrupt", "004.seg", "005.seg", "notes.txt"}
	if got := names(t, dir); !slices.Equal(got, want) {
		t.Fatalf("Retain(2) left %v, want %v", got, want)
	}
	for _, keep := range []int{0, -1} {
		dir := fill(t)
		before := names(t, dir)
		if err := Retain(dir, keep, isSeg); err != nil {
			t.Fatal(err)
		}
		if got := names(t, dir); !slices.Equal(got, before) {
			t.Fatalf("Retain(%d) left %v, want everything: %v", keep, got, before)
		}
	}
	if err := Retain(filepath.Join(t.TempDir(), "missing"), 2, isSeg); err == nil || !strings.HasPrefix(err.Error(), "reading dir") {
		t.Fatalf("error %v: want one naming the read step", err)
	}
}

func TestQuarantineRenamesAside(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.dat")
	if err := os.WriteFile(path, []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Quarantine(path); err != nil {
		t.Fatal(err)
	}
	if got := names(t, dir); !slices.Equal(got, []string{"x.dat.corrupt"}) {
		t.Fatalf("directory holds %v, want only the quarantined file", got)
	}
	if b, err := os.ReadFile(path + ".corrupt"); err != nil || string(b) != "damaged" {
		t.Fatalf("quarantined file holds %q (%v)", b, err)
	}
}
