package eval

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcf/internal/tunnels"
)

// prepareFingerprint hashes what a prepared instance hands every plan:
// the bits of every traffic-matrix entry, then every tunnel's pair and
// arcs in ID order (FNV-64a over little-endian words).
func prepareFingerprint(s *Setup) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(s.TM.N()))
	for _, row := range s.TM.Demand {
		for _, d := range row {
			put(math.Float64bits(d))
		}
	}
	put(uint64(s.Tunnels.Len()))
	for id := 0; id < s.Tunnels.Len(); id++ {
		tu := s.Tunnels.Tunnel(tunnels.ID(id))
		put(uint64(tu.Pair.Src))
		put(uint64(tu.Pair.Dst))
		put(uint64(len(tu.Path.Arcs)))
		for _, a := range tu.Path.Arcs {
			put(uint64(a))
		}
	}
	return h.Sum64()
}

// TestPrepareFingerprints pins the prepared instance of the benchmark's
// option sets (BTNorthAmerica serves two workloads) and of a 2 000-node
// Waxman graph: a faster tunnel search or scaling solve must hand every
// plan the same matrix bits and the same tunnels, in the same ID order.
// The MLU is held to 1e-12 beside it, since a warm confirming solve may
// land on the last bit differently.
func TestPrepareFingerprints(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		tuns int
		fp   uint64
		mlu  float64
	}{
		{"sprint-tf-f1", Options{Topology: "Sprint", Seed: 1, MaxPairs: 45, FailureBudget: 1},
			135, 0x03d00a949b0aa199, 0.61499999999999988},
		{"btna-f2", Options{Topology: "BTNorthAmerica", Seed: 1, MaxPairs: 40, FailureBudget: 2},
			120, 0xa48d7e7adb900e63, 0.61499999999999966},
		{"synth1k-tf-f1", Options{Synth: "waxman", SynthNodes: 1000, Seed: 1, MaxPairs: 250, FailureBudget: 1},
			750, 0x8deacee4fed74077, 0.59999999999999998},
		{"waxman-2k", Options{Synth: "waxman", SynthNodes: 2000, Seed: 1, MaxPairs: 500, FailureBudget: 1},
			1500, 0x06951761b6bb0dbc, 0.59999999999999998},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Prepare(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := prepareFingerprint(s)
			t.Logf("%s: tunnels %d fingerprint %#x MLU %.17g", tc.name, s.Tunnels.Len(), got, s.MLU)
			if s.Tunnels.Len() != tc.tuns || got != tc.fp {
				t.Errorf("%d tunnels, fingerprint %#x; want %d, %#x", s.Tunnels.Len(), got, tc.tuns, tc.fp)
			}
			if math.Abs(s.MLU-tc.mlu) > 1e-12 {
				t.Errorf("MLU %.17g, want %.17g within 1e-12", s.MLU, tc.mlu)
			}
		})
	}
}

// TestPrepareRejectsNegativeOptions: a negative failure budget or pair
// cap is refused by both preparation paths with an error naming the
// flag, before it can reach the solver (a negative budget used to
// prepare zero scenarios and fail the boot solve as an internal error;
// a negative cap meant every pair). Zero keeps its documented meaning.
func TestPrepareRejectsNegativeOptions(t *testing.T) {
	links := filepath.Join(t.TempDir(), "ring.links")
	if err := os.WriteFile(links, []byte("0 1 10\n1 2 10\n2 3 10\n3 0 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prepare := map[string]func(Options) (*Setup, error){
		"Prepare":      Prepare,
		"PrepareFiles": func(o Options) (*Setup, error) { return PrepareFiles(links, "", o) },
	}
	for _, tc := range []struct {
		name string
		opts Options
		flag string
	}{
		{"budget", Options{Topology: "Sprint", Seed: 1, FailureBudget: -1}, "-f"},
		{"pairs", Options{Topology: "Sprint", Seed: 1, MaxPairs: -5}, "-pairs"},
		{"both", Options{Topology: "Sprint", Seed: 1, MaxPairs: -5, FailureBudget: -2}, "-f"},
	} {
		for name, prep := range prepare {
			_, err := prep(tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("%s %s: error %v, want one naming %s", name, tc.name, err, tc.flag)
			}
		}
	}
	s, err := Prepare(Options{Topology: "Sprint", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Graph.NumNodes(); len(s.Pairs) != n*(n-1) || s.Failures.Budget != 1 {
		t.Fatalf("zero options: %d pairs, budget %d; want all %d pairs and budget 1", len(s.Pairs), s.Failures.Budget, n*(n-1))
	}
}
