package analysis

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

// loadFixture loads one testdata/src directory in bare mode.
func loadFixture(t *testing.T, dir string) []*Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := (&Loader{Dir: root}).Load([]string{dir})
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	return pkgs
}

// TestSuppressionJSONRoundTrip checks that a multi-word-reason
// directive suppresses in -json mode too: the JSON encoding of the
// run's diagnostics round-trips and contains nothing on the suppressed
// lines.
func TestSuppressionJSONRoundTrip(t *testing.T) {
	pkgs := loadFixture(t, "suppress")
	diags := Run(pkgs, []*Analyzer{FloatCmp})
	data, err := json.Marshal(diags)
	if err != nil {
		t.Fatal(err)
	}
	var back []Diagnostic
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, diags) {
		t.Errorf("JSON round trip changed diagnostics:\n%v\nvs\n%v", back, diags)
	}
	// The fixture's first two comparisons are suppressed with
	// multi-word reasons (lines 11 and 12); they must not appear.
	for _, d := range back {
		if d.Analyzer == "floatcmp" && (d.Line == 11 || d.Line == 12) {
			t.Errorf("suppressed line %d leaked into JSON output: %v", d.Line, d)
		}
	}
	// The unsuppressed violations must still be there.
	var lines []int
	for _, d := range back {
		if d.Analyzer == "floatcmp" {
			lines = append(lines, d.Line)
		}
	}
	if len(lines) != 2 {
		t.Errorf("floatcmp findings on lines %v, want exactly 2", lines)
	}
}
