package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"pcf/internal/lp"
)

func TestDegradable(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{lp.ErrNumerical, true},
		{fmt.Errorf("wrap: %w", lp.ErrNumerical), true},
		{lp.ErrIterLimit, true},
		{ErrCutLimit, true},
		{lp.ErrInfeasible, false},
		{context.DeadlineExceeded, false},
		{errors.New("unrelated"), false},
	}
	for _, c := range cases {
		if got := Degradable(c.err); got != c.want {
			t.Errorf("Degradable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestLookupSchemeIgnoresCase: every row resolves from its name in any
// case, so pcfplan's lower-case -scheme values and pcfd's ?scheme=
// name the same rows, and nothing else resolves.
func TestLookupSchemeIgnoresCase(t *testing.T) {
	for _, name := range SchemeNames() {
		for _, asked := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			if s, ok := LookupScheme(asked); !ok || s.Name != name {
				t.Errorf("LookupScheme(%q) = %v, %v; want the %s row", asked, s, ok, name)
			}
		}
	}
	for _, asked := range []string{"", "R3", "Optimal", "PCF-CLS-TopSort", "pcf_tf"} {
		if s, ok := LookupScheme(asked); ok {
			t.Errorf("LookupScheme(%q) = %s, want no row", asked, s.Name)
		}
	}
}
