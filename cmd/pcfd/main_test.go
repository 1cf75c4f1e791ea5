package main

import "testing"

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
