package eval

// Scenario-model plumbing for the CLIs: replace a prepared setup's
// default single-link failure set with an SRLG file or a node-failure
// list, keeping the budget.

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"pcf/internal/failures"
	"pcf/internal/topology"
)

// ApplyFailureModel rewrites the setup's failure set per the CLIs'
// -srlg and -node-failures flags: the SRLG file when srlgFile is set,
// the node-failure spec when nodeFailures is, neither when both are
// empty. Setting both is an error naming both flags.
func (s *Setup) ApplyFailureModel(srlgFile, nodeFailures string) error {
	switch {
	case srlgFile != "" && nodeFailures != "":
		return fmt.Errorf("eval: -srlg and -node-failures are mutually exclusive")
	case srlgFile != "":
		return s.ApplySRLGFile(srlgFile)
	case nodeFailures != "":
		return s.ApplyNodeFailures(nodeFailures)
	}
	return nil
}

// ApplySRLGFile replaces the setup's failure set with shared-risk link
// groups read from path (failures.ReadSRLGs format: one group per
// line, optional alpha=<x> for degrade groups). Links outside every
// group keep singleton death units; the failure budget is preserved.
func (s *Setup) ApplySRLGFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("eval: srlg file: %w", err)
	}
	defer f.Close()
	specs, err := failures.ReadSRLGs(f, s.Graph.NumLinks())
	if err != nil {
		return fmt.Errorf("eval: %s: %w", path, err)
	}
	s.Failures = failures.SRLGSet(s.Graph, specs, s.Failures.Budget)
	return nil
}

// ApplyNodeFailures replaces the setup's failure set with node failure
// units. The spec is a comma-separated node id list ("3,5,9"), or
// "transit" for every node that is not a demand endpoint. The failure
// budget is preserved.
func (s *Setup) ApplyNodeFailures(spec string) error {
	var nodes []topology.NodeID
	if strings.TrimSpace(spec) == "transit" {
		endpoint := map[topology.NodeID]bool{}
		for _, p := range s.Pairs {
			endpoint[p.Src] = true
			endpoint[p.Dst] = true
		}
		for v := 0; v < s.Graph.NumNodes(); v++ {
			if !endpoint[topology.NodeID(v)] {
				nodes = append(nodes, topology.NodeID(v))
			}
		}
		if len(nodes) == 0 {
			return fmt.Errorf("eval: no transit nodes (every node is a demand endpoint)")
		}
	} else {
		for _, part := range strings.Split(spec, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("eval: bad node id %q: %w", part, err)
			}
			if id < 0 || id >= s.Graph.NumNodes() {
				return fmt.Errorf("eval: node id %d out of range [0,%d)", id, s.Graph.NumNodes())
			}
			nodes = append(nodes, topology.NodeID(id))
		}
		if len(nodes) == 0 {
			return fmt.Errorf("eval: empty node-failure list")
		}
	}
	s.Failures = failures.Nodes(s.Graph, nodes, s.Failures.Budget)
	return nil
}
