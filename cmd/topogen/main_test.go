package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSynthDeterministic runs the synthetic emitter twice with the same
// flags and requires byte-identical output files — the contract that
// lets external tools reproduce an instance from just (kind, nodes,
// seed).
func TestSynthDeterministic(t *testing.T) {
	dir := t.TempDir()
	emit := func(prefix string) (links, tm []byte) {
		t.Helper()
		c := config{synth: "ring-of-rings", nodes: 200, seed: 5, pairs: 40, out: filepath.Join(dir, prefix)}
		if err := run(c, io.Discard); err != nil {
			t.Fatal(err)
		}
		links, err := os.ReadFile(c.out + ".links")
		if err != nil {
			t.Fatal(err)
		}
		tm, err = os.ReadFile(c.out + ".tm")
		if err != nil {
			t.Fatal(err)
		}
		return links, tm
	}
	l1, m1 := emit("a")
	l2, m2 := emit("b")
	if !bytes.Equal(l1, l2) {
		t.Error("same seed produced different .links output")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("same seed produced different .tm output")
	}
	if len(l1) == 0 || len(m1) == 0 {
		t.Error("empty output files")
	}

	c := config{synth: "waxman", nodes: 150, seed: 9, pairs: 20, out: filepath.Join(dir, "w")}
	if err := run(c, io.Discard); err != nil {
		t.Fatal(err)
	}
	l3, err := os.ReadFile(c.out + ".links")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(l1, l3) {
		t.Error("different kinds produced identical .links output")
	}
}

// TestMLULabel: the .tm header and the summary line name how the MLU
// was computed — the exact MCF optimum for a zoo topology, the
// tunnel-split target for a synthetic one, which no MCF was solved for.
func TestMLULabel(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name      string
		c         config
		want, not string
	}{
		{"zoo", config{topology: "Sprint", seed: 1}, "optimal no-failure MLU (exact MCF)", "target"},
		{"synthetic", config{synth: "waxman", nodes: 60, seed: 1, pairs: 10}, "tunnel-split MLU target", "optimal"},
	} {
		tc.c.out = filepath.Join(dir, tc.name)
		var stdout bytes.Buffer
		if err := run(tc.c, &stdout); err != nil {
			t.Fatal(err)
		}
		tm, err := os.ReadFile(tc.c.out + ".tm")
		if err != nil {
			t.Fatal(err)
		}
		header, _, _ := strings.Cut(string(tm), "\n")
		for what, s := range map[string]string{".tm header": header, "stdout": stdout.String()} {
			if !strings.Contains(s, tc.want) || strings.Contains(s, tc.not) {
				t.Errorf("%s: %s %q, want %q and no %q", tc.name, what, s, tc.want, tc.not)
			}
		}
	}
}
