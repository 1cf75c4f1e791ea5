package core

import (
	"context"
	"errors"
	"fmt"
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
