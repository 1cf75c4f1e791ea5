package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"pcf/internal/eval"
)

// TestSolveReturnsReportedPlan: the plan -validate and -reservations
// act on is the plan pcfplan reported, for every plan scheme — not a
// re-solve with other tunnels or another formulation.
func TestSolveReturnsReportedPlan(t *testing.T) {
	setup, err := eval.Prepare(eval.Options{Topology: "Sprint", Seed: 1, MaxPairs: 20, FailureBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{eval.SchemeFFC, eval.SchemePCFTF, eval.SchemePCFLS, eval.SchemePCFCLS, ""} {
		var out bytes.Buffer
		plan, err := solve(context.Background(), &out, setup, name, "Sprint", nil)
		if err != nil {
			t.Fatalf("scheme %q: %v", name, err)
		}
		var scheme string
		var value float64
		if _, err := fmt.Sscanf(out.String(), "%s guaranteed demand scale: %f", &scheme, &value); err != nil {
			t.Fatalf("scheme %q: unparseable report %q: %v", name, out.String(), err)
		}
		if name != "" && scheme != name {
			t.Errorf("scheme %q reported as %s", name, scheme)
		}
		if plan.Scheme != scheme || fmt.Sprintf("%.4f", plan.Value) != fmt.Sprintf("%.4f", value) {
			t.Errorf("scheme %q: reported %s %.4f, returned plan is %s %.4f", name, scheme, value, plan.Scheme, plan.Value)
		}
	}
}
