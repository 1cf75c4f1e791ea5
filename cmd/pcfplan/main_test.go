package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pcf/internal/eval"
)

// TestSolveReturnsReportedPlan: the plan -validate and -reservations
// act on is the plan pcfplan reported, for every plan scheme — not a
// re-solve with other tunnels or another formulation. best runs the
// ladder on the instance pcf-cls solves, so where its top rung holds
// both report the same PCF-CLS value; on Xeex best once solved a
// weaker instance and reported 0.1913 against pcf-cls's 0.4605.
func TestSolveReturnsReportedPlan(t *testing.T) {
	for _, topo := range []string{"Sprint", "Xeex"} {
		setup, err := eval.Prepare(eval.Options{Topology: topo, Seed: 1, MaxPairs: 20, FailureBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		reported := map[string]string{}
		for _, name := range []string{eval.SchemeFFC, eval.SchemePCFTF, eval.SchemePCFLS, eval.SchemePCFCLS, eval.SchemeBest} {
			var out bytes.Buffer
			plan, err := solve(context.Background(), &out, setup, name)
			if err != nil {
				t.Fatalf("%s scheme %q: %v", topo, name, err)
			}
			var scheme string
			var value float64
			if _, err := fmt.Sscanf(out.String(), "%s guaranteed demand scale: %f", &scheme, &value); err != nil {
				t.Fatalf("%s scheme %q: unparseable report %q: %v", topo, name, out.String(), err)
			}
			if name != eval.SchemeBest && scheme != name {
				t.Errorf("%s scheme %q reported as %s", topo, name, scheme)
			}
			if plan.Scheme != scheme || fmt.Sprintf("%.4f", plan.Value) != fmt.Sprintf("%.4f", value) {
				t.Errorf("%s scheme %q: reported %s %.4f, returned plan is %s %.4f", topo, name, scheme, value, plan.Scheme, plan.Value)
			}
			reported[name] = fmt.Sprintf("%s %.4f", scheme, value)
		}
		if reported[eval.SchemeBest] != reported[eval.SchemePCFCLS] {
			t.Errorf("%s: best reported %s, pcf-cls %s", topo, reported[eval.SchemeBest], reported[eval.SchemePCFCLS])
		}
	}
}

// TestZeroFailureBudgetRefused: pcfplan -f 0 exits 1 naming -f before
// it prints a header. Options reads a zero budget as unset, so pcfplan
// once printed "f=0 (18 scenarios)" and returned f=1's value.
func TestZeroFailureBudgetRefused(t *testing.T) {
	if os.Getenv("PCFPLAN_TEST_MAIN") != "" {
		os.Args = []string{"pcfplan", "-topology", "Sprint", "-pairs", "10", "-f", "0"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestZeroFailureBudgetRefused$")
	cmd.Env = append(os.Environ(), "PCFPLAN_TEST_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != eval.ExitFailure {
		t.Fatalf("pcfplan -f 0: %v, want exit %d; stdout %q", err, eval.ExitFailure, stdout.String())
	}
	if !strings.Contains(stderr.String(), "(-f)") || strings.Contains(stdout.String(), "f=") {
		t.Fatalf("pcfplan -f 0: stderr %q does not name -f, or stdout %q has a header", stderr.String(), stdout.String())
	}
}
