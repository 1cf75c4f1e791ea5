package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/serve"
	"pcf/internal/telemetry"
	"pcf/internal/topozoo"
)

func TestCheckRole(t *testing.T) {
	for _, tc := range []struct {
		role, planner, state string
		ok                   bool
	}{
		{"", "", "", true},
		{"", "", "/var/lib/pcfd", true},
		{"planner", "", "/var/lib/pcfd", true},
		{"planner", "", "", false},
		{"replica", "http://planner:8080", "", true},
		{"replica", "", "/var/lib/pcfd", false},
		{"leader", "", "/var/lib/pcfd", false},
	} {
		err := checkRole(tc.role, tc.planner, tc.state)
		if (err == nil) != tc.ok {
			t.Errorf("checkRole(%q, %q, %q) = %v, want ok %v", tc.role, tc.planner, tc.state, err, tc.ok)
		}
	}
}

// TestBootSolveLeavesSolveRecord: pcfd's boot solve runs the server's
// own solve path, so a daemon that booted without a checkpoint holds a
// solve record for the best row, with no failure outcome, before the
// publish record of epoch 1. The boot once called core.SolveBest and published
// directly, leaving pcftop's "last solve" empty and bypassing the
// breaker and MutatePlan.
func TestBootSolveLeavesSolveRecord(t *testing.T) {
	in, err := served(eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 10, FailureBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{Instance: in, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := boot(context.Background(), srv, true); err != nil {
		t.Fatal(err)
	}
	recs, _, err := srv.Telemetry().ReadSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	solved := -1
	for i, r := range recs {
		switch r.Kind {
		case telemetry.KindSolve:
			if r.Scheme != serve.SchemeBest || r.Outcome != "" {
				t.Fatalf("boot solve record: scheme %q outcome %q, want best, ok", r.Scheme, r.Outcome)
			}
			solved = i
		case telemetry.KindPublish:
			if solved < 0 || r.Epoch != 1 {
				t.Fatalf("publish record of epoch %d at %d, solve record at %d: want a solve record before epoch 1's publish", r.Epoch, i, solved)
			}
			return
		}
	}
	t.Fatalf("no publish record after boot: %+v", recs)
}

// TestPrepareServesEvalCLS: the ladder pcfd serves solves eval's
// PCF-CLS instance, so on Xeex its plan is PCF-CLS at the value eval
// reports for that scheme, from -topology and from -links alike. The
// daemon once solved core.BuildCLSQuick's bare instance, whose
// segments had one direct-link tunnel each (0.1913 against 0.4605 from
// -topology).
func TestPrepareServesEvalCLS(t *testing.T) {
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
	for _, tc := range []struct {
		flag string
		o    eval.Options
	}{
		{"-topology", eval.Options{Topology: "Xeex", Seed: 1, MaxPairs: 20, FailureBudget: 1}},
		{"-links", eval.Options{LinksFile: links, Seed: 1, MaxPairs: 20, FailureBudget: 1}},
	} {
		in, err := served(tc.o)
		if err != nil {
			t.Fatalf("%s: %v", tc.flag, err)
		}
		plan, err := core.SolveBest(in, core.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.flag, err)
		}
		setup, err := eval.Prepare(tc.o)
		if err != nil {
			t.Fatalf("%s: %v", tc.flag, err)
		}
		want, err := setup.Run(context.Background(), eval.SchemePCFCLS)
		if err != nil {
			t.Fatalf("%s: %v", tc.flag, err)
		}
		if plan.Scheme != eval.SchemePCFCLS || math.Float64bits(plan.Value) != math.Float64bits(want.Value) {
			t.Errorf("%s: pcfd's ladder answers %s %.4f, eval's PCF-CLS %.4f", tc.flag, plan.Scheme, plan.Value, want.Value)
		}
	}
}

// TestPrepareRefusesZeroBudget: pcfd -f 0 is refused with an error
// naming -f. Options once read a zero budget as unset, so the daemon
// logged "f=0" and served f=1's plan.
func TestPrepareRefusesZeroBudget(t *testing.T) {
	_, err := served(eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 10, FailureBudget: 0})
	if err == nil || !strings.Contains(err.Error(), "(-f)") || eval.ExitCode(err) != eval.ExitFailure {
		t.Fatalf("prepare with -f 0: %v, want an error naming -f (exit %d)", err, eval.ExitFailure)
	}
}

// served is what pcfd's main serves for o: the prepared setup's
// CLSInstance.
func served(o eval.Options) (*core.Instance, error) {
	setup, err := eval.Prepare(o)
	if err != nil {
		return nil, err
	}
	return setup.CLSInstance()
}
