package eval

// What Prepare reads besides the options: the topology, the traffic
// matrix and the failure model.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pcf/internal/failures"
	"pcf/internal/topology"
	"pcf/internal/topozoo"
	"pcf/internal/traffic"
)

// graph loads the topology o names: a links file as given, so its node
// ids stay the ones a traffic file names, or a synthetic or Table 3
// graph with its degree-one nodes pruned.
func (o Options) graph() (*topology.Graph, error) {
	var g *topology.Graph
	var err error
	switch {
	case o.LinksFile != "":
		return readFile(o.LinksFile, func(r io.Reader) (*topology.Graph, error) {
			return topology.ReadLinks(r, o.LinksFile)
		})
	case o.Synth != "":
		nodes := o.SynthNodes
		if nodes == 0 {
			nodes = 1000
		}
		g, err = topozoo.Synth(o.Synth, nodes, o.Seed)
	default:
		g, err = topozoo.Load(o.Topology)
	}
	if err != nil {
		return nil, err
	}
	g, _ = g.PruneDegreeOne()
	return g, nil
}

// matrix is the traffic file's matrix when o names one, else g's
// seeded gravity matrix.
func (o Options) matrix(g *topology.Graph) (*traffic.Matrix, error) {
	if o.TMFile == "" {
		return traffic.Gravity(g, traffic.GravityOptions{Seed: o.Seed, Jitter: 0.4}), nil
	}
	return readFile(o.TMFile, func(r io.Reader) (*traffic.Matrix, error) {
		return traffic.ReadMatrix(r, g.NumNodes())
	})
}

// readFile parses the file at path.
func readFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// errNoTransit: a "transit" node-failure model on a setup where every
// node is a demand endpoint, so there is no router to fail.
var errNoTransit = errors.New("eval: no transit nodes (every node is a demand endpoint)")

// failureSet builds the failure set of o's model with budget
// FailureBudget: the SRLG file's groups, the node-failure units, or,
// when neither is set, every link on its own.
func (o Options) failureSet(g *topology.Graph, pairs []topology.Pair) (*failures.Set, error) {
	switch {
	case o.SRLGFile != "":
		specs, err := readFile(o.SRLGFile, func(r io.Reader) ([]failures.SRLGSpec, error) {
			return failures.ReadSRLGs(r, g.NumLinks())
		})
		if err != nil {
			return nil, fmt.Errorf("eval: srlg file: %w", err)
		}
		return failures.SRLGSet(g, specs, o.FailureBudget), nil
	case o.NodeFailures != "":
		nodes, err := failedNodes(o.NodeFailures, g, pairs)
		if err != nil {
			return nil, err
		}
		return failures.Nodes(g, nodes, o.FailureBudget), nil
	}
	return failures.SingleLinks(g, o.FailureBudget), nil
}

// failedNodes parses a node-failure spec: a comma-separated node id
// list ("3,5,9"), or "transit" for every node that is not an endpoint
// of pairs.
func failedNodes(spec string, g *topology.Graph, pairs []topology.Pair) ([]topology.NodeID, error) {
	var nodes []topology.NodeID
	if strings.TrimSpace(spec) == "transit" {
		endpoint := map[topology.NodeID]bool{}
		for _, p := range pairs {
			endpoint[p.Src] = true
			endpoint[p.Dst] = true
		}
		for v := 0; v < g.NumNodes(); v++ {
			if !endpoint[topology.NodeID(v)] {
				nodes = append(nodes, topology.NodeID(v))
			}
		}
		if len(nodes) == 0 {
			return nil, errNoTransit
		}
		return nodes, nil
	}
	for _, part := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("eval: bad node id %q: %w", part, err)
		}
		if id < 0 || id >= g.NumNodes() {
			return nil, fmt.Errorf("eval: node id %d out of range [0,%d)", id, g.NumNodes())
		}
		nodes = append(nodes, topology.NodeID(id))
	}
	return nodes, nil
}
