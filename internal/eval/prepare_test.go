package eval

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pcf/internal/topology"
	"pcf/internal/topozoo"
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

// TestPrepareRejectsNegativeOptions: a failure budget below 1 or a
// negative pair cap is refused, from a Table 3 graph and from a links
// file alike, with an error naming the flag, before it can reach the
// solver (a negative budget used to prepare zero scenarios and fail the
// boot solve as an internal error; a negative cap meant every pair).
// So is a traffic file without its links file, which used to be
// ignored. A zero pair cap keeps its documented meaning, every pair.
func TestPrepareRejectsNegativeOptions(t *testing.T) {
	links := filepath.Join(t.TempDir(), "ring.links")
	if err := os.WriteFile(links, []byte("0 1 10\n1 2 10\n2 3 10\n3 0 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
		flag string
	}{
		{"budget", Options{Topology: "Sprint", Seed: 1, FailureBudget: -1}, "-f"},
		{"zero budget", Options{Topology: "Sprint", Seed: 1}, "-f"},
		{"pairs", Options{Topology: "Sprint", Seed: 1, MaxPairs: -5, FailureBudget: 1}, "-pairs"},
		{"both", Options{Topology: "Sprint", Seed: 1, MaxPairs: -5, FailureBudget: -2}, "-f"},
	} {
		for _, src := range []string{"", links} {
			o := tc.opts
			o.LinksFile = src
			if _, err := Prepare(o); err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("%s from %q: error %v, want one naming %s", tc.name, src, err, tc.flag)
			}
		}
	}
	if _, err := Prepare(Options{Topology: "Sprint", Seed: 1, FailureBudget: 1, TMFile: links}); err == nil ||
		!strings.Contains(err.Error(), "-tm") || !strings.Contains(err.Error(), "-links") {
		t.Errorf("traffic file without links file: error %v, want one naming -tm and -links", err)
	}
	s, err := Prepare(Options{Topology: "Sprint", Seed: 1, FailureBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Graph.NumNodes(); len(s.Pairs) != n*(n-1) || s.Failures.Budget != 1 {
		t.Fatalf("zero pair cap: %d pairs, budget %d; want all %d pairs and budget 1", len(s.Pairs), s.Failures.Budget, n*(n-1))
	}
}

// TestLinksFileMLUIsTunnelSplit: a setup prepared from a links file
// reports, under its own label, the MLU of splitting each pair's demand
// evenly over its tunnels, computed here from the setup's tunnels, and
// solves no flow LP for it. It once reported the exact MCF optimum,
// which cost more than the solve on a 300-node file and never finished
// on a 1 000-node one.
func TestLinksFileMLUIsTunnelSplit(t *testing.T) {
	g, err := topozoo.Load("Xeex")
	if err != nil {
		t.Fatal(err)
	}
	var lines strings.Builder
	for _, l := range g.Links() {
		fmt.Fprintf(&lines, "%d %d %g\n", l.A, l.B, l.Capacity)
	}
	links := filepath.Join(t.TempDir(), "xeex.links")
	if err := os.WriteFile(links, []byte(lines.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Prepare(Options{LinksFile: links, Seed: 1, MaxPairs: 20, FailureBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	load := map[topology.ArcID]float64{}
	for _, p := range s.Pairs {
		ids := s.Tunnels.ForPair(p)
		for _, id := range ids {
			for _, a := range s.Tunnels.Tunnel(id).Path.Arcs {
				load[a] += s.TM.At(p) / float64(len(ids))
			}
		}
	}
	want := 0.0
	for a, l := range load {
		want = math.Max(want, l/s.Graph.ArcCapacity(a))
	}
	if want == 0 || math.Abs(s.MLU-want) > 1e-12*want || s.MLULabel() != "tunnel-split MLU of the given matrix" {
		t.Fatalf("links-file MLU %.17g labelled %q, want the tunnel split %.17g", s.MLU, s.MLULabel(), want)
	}
}

// TestCLSInstanceBuiltOnce: every Run of a table row on one setup
// solves the one instance CLSInstance returns; each Run once built its
// own, which cost a 1 000-node PCF-TF run 1.99 s of its 2.44 s.
func TestCLSInstanceBuiltOnce(t *testing.T) {
	s, err := Prepare(Options{Topology: "Sprint", Seed: 1, MaxPairs: 10, FailureBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Run(context.Background(), SchemePCFCLS)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(context.Background(), SchemePCFCLS)
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.CLSInstance()
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.Instance != in || b.Plan.Instance != in {
		t.Fatalf("two runs solved instances %p and %p, CLSInstance is %p", a.Plan.Instance, b.Plan.Instance, in)
	}
}

// TestTopSortLeavesSharedInstance: PCF-CLS-TopSort filters a copy of
// the shared instance, so a PCF-CLS run after it solves the same
// instance, with the same LSs, to the same plan bits as one before it.
// At f = 2 the filter prunes; at f = 1 it prunes nothing on Sprint.
func TestTopSortLeavesSharedInstance(t *testing.T) {
	s, err := Prepare(Options{Topology: "Sprint", Seed: 1, MaxPairs: 10, FailureBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	in, err := s.CLSInstance()
	if err != nil {
		t.Fatal(err)
	}
	lss := len(in.LSs)
	ctx := context.Background()
	before, err := s.Run(ctx, SchemePCFCLS)
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := s.Run(ctx, SchemePCFCLSTopSort)
	if err != nil {
		t.Fatal(err)
	}
	after, err := s.Run(ctx, SchemePCFCLS)
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted.Plan.Instance.LSs) >= lss {
		t.Fatalf("TopSort kept %d of %d LSs; the test needs a topology it prunes", len(sorted.Plan.Instance.LSs), lss)
	}
	if len(in.LSs) != lss || math.Float64bits(after.Value) != math.Float64bits(before.Value) ||
		!reflect.DeepEqual(after.Plan.TunnelRes, before.Plan.TunnelRes) || !reflect.DeepEqual(after.Plan.LSRes, before.Plan.LSRes) {
		t.Fatalf("after TopSort: %d LSs (was %d), PCF-CLS %v (was %v)", len(in.LSs), lss, after.Value, before.Value)
	}
}

// TestNodeFailuresWithoutTransit: the node-failure experiment prints
// dashes for a topology on which every node is a demand endpoint, and
// values where there is a transit router to fail.
func TestNodeFailuresWithoutTransit(t *testing.T) {
	for _, tc := range []struct {
		topo   string
		pairs  int
		dashes bool
	}{{"B4", 0, true}, {"Sprint", 3, false}} {
		tab, err := NodeFailures(Config{Topologies: []string{tc.topo}, MaxPairs: tc.pairs})
		if err != nil {
			t.Fatal(err)
		}
		if row := tab.Rows[0]; (row[1] == "-") != tc.dashes || row[0] != tc.topo {
			t.Errorf("%s with %d pairs: row %v, want dashes %v", tc.topo, tc.pairs, row, tc.dashes)
		}
	}
}
