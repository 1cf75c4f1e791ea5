package failures

// Text format for shared-risk link groups, so SRLG models can be fed
// to the CLIs (pcfplan/pcfeval -srlg). One group per line: the link
// ids that share fate, optionally prefixed by "alpha=<x>" to make the
// group degrade its links to x times nominal capacity instead of
// killing them. Lines starting with '#' are comments.
//
//	# conduit A: links 0, 3 and 7 share a duct
//	0 3 7
//	# a lossy microwave pair that fades to half rate together
//	alpha=0.5 2 4

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"pcf/internal/topology"
)

// SRLGSpec is one parsed shared-risk group: the links that fail
// together and the capacity scale they degrade to (0 = they die).
type SRLGSpec struct {
	Links []topology.LinkID
	Alpha float64
}

// ReadSRLGs parses the SRLG text format. numLinks bounds the legal
// link ids; every group must name at least one distinct in-range link,
// and a group's alpha must lie in (0,1).
func ReadSRLGs(r io.Reader, numLinks int) ([]SRLGSpec, error) {
	sc := bufio.NewScanner(r)
	var specs []SRLGSpec
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		spec := SRLGSpec{}
		if strings.HasPrefix(fields[0], "alpha=") {
			a, err := strconv.ParseFloat(strings.TrimPrefix(fields[0], "alpha="), 64)
			if err != nil {
				return nil, fmt.Errorf("srlg: line %d: bad alpha: %v", lineNo, err)
			}
			// NaN compares false everywhere, so test the accepting range.
			if !(a > 0 && a < 1) || math.IsInf(a, 0) {
				return nil, fmt.Errorf("srlg: line %d: alpha %g outside (0,1)", lineNo, a)
			}
			spec.Alpha = a
			fields = fields[1:]
		}
		if len(fields) == 0 {
			return nil, fmt.Errorf("srlg: line %d: group has no links", lineNo)
		}
		seen := make(map[int]bool, len(fields))
		for _, f := range fields {
			id, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("srlg: line %d: bad link id %q", lineNo, f)
			}
			if id < 0 || id >= numLinks {
				return nil, fmt.Errorf("srlg: line %d: link id %d outside [0,%d)", lineNo, id, numLinks)
			}
			if seen[id] {
				return nil, fmt.Errorf("srlg: line %d: duplicate link id %d", lineNo, id)
			}
			seen[id] = true
			spec.Links = append(spec.Links, topology.LinkID(id))
		}
		specs = append(specs, spec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("srlg: no groups in input")
	}
	return specs, nil
}

// SRLGSet returns a model where each shared-risk link group is one
// unit — death, or degradation to its Alpha when that is positive —
// and at most f units fail. Links not covered by any group get
// singleton death units so they can still fail individually.
func SRLGSet(g *topology.Graph, specs []SRLGSpec, f int) *Set {
	covered := make(map[topology.LinkID]bool)
	var units []Unit
	for i, spec := range specs {
		links := append([]topology.LinkID(nil), spec.Links...)
		sort.Slice(links, func(a, b int) bool { return links[a] < links[b] })
		units = append(units, Unit{
			Name:  fmt.Sprintf("srlg%d", i),
			Links: links,
			Alpha: spec.Alpha,
		})
		for _, l := range links {
			covered[l] = true
		}
	}
	for i := 0; i < g.NumLinks(); i++ {
		if !covered[topology.LinkID(i)] {
			units = append(units, Unit{
				Name:  fmt.Sprintf("link%d", i),
				Links: []topology.LinkID{topology.LinkID(i)},
			})
		}
	}
	return &Set{Units: units, Budget: f}
}
