package eval

import (
	"context"
	"math"
	"testing"
)

func TestDeterministicRuns(t *testing.T) {
	var vals []float64
	for i := 0; i < 3; i++ {
		s, err := Prepare(Options{Topology: "Sprint", Seed: 1, MaxPairs: 60, FailureBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(context.Background(), "FFC")
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, r.Value)
	}
	if math.Float64bits(vals[0]) != math.Float64bits(vals[1]) ||
		math.Float64bits(vals[1]) != math.Float64bits(vals[2]) {
		t.Fatalf("nondeterministic FFC: %v", vals)
	}
}
