// topogen emits the synthesized evaluation topologies and gravity
// traffic matrices as text files, so external tools (or a Gurobi-based
// cross-check) can consume the exact instances this repository
// evaluates.
//
//	topogen -topology GEANT -seed 1 -out /tmp/geant
//
// writes /tmp/geant.links (one "nodeA nodeB capacity" line per link)
// and /tmp/geant.tm (one "src dst demand" line per nonzero demand).
// Synthetic scaling topologies use the same contract:
//
//	topogen -synth waxman -nodes 1000 -seed 1 -out /tmp/wax1k
//
// Output is deterministic: the same flags always produce byte-identical
// files.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"pcf/internal/eval"
	"pcf/internal/topozoo"
)

type config struct {
	topology string
	synth    string
	nodes    int
	seed     int64
	pairs    int
	out      string
}

func main() {
	var c config
	flag.StringVar(&c.topology, "topology", "", "Topology Zoo name (empty = list all)")
	flag.StringVar(&c.synth, "synth", "", fmt.Sprintf("synthetic topology kind %v (overrides -topology)", topozoo.SynthKinds))
	flag.IntVar(&c.nodes, "nodes", 1000, "synthetic topology size (with -synth)")
	flag.Int64Var(&c.seed, "seed", 1, "topology and traffic matrix seed")
	flag.IntVar(&c.pairs, "pairs", 0, "top-K demand pairs (0 = all)")
	flag.StringVar(&c.out, "out", "", "output path prefix (default: topology name)")
	flag.Parse()

	if c.topology == "" && c.synth == "" {
		fmt.Println("available topologies (paper Table 3):")
		for _, e := range topozoo.Table3 {
			fmt.Printf("  %-16s %3d nodes %3d edges\n", e.Name, e.Nodes, e.Edges)
		}
		fmt.Printf("synthetic kinds (-synth): %v\n", topozoo.SynthKinds)
		return
	}
	if err := run(c, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prepares the instance, writes prefix.links and prefix.tm and
// reports them on out.
func run(c config, out io.Writer) error {
	setup, err := eval.Prepare(eval.Options{
		Topology: c.topology, Synth: c.synth, SynthNodes: c.nodes,
		Seed: c.seed, MaxPairs: c.pairs, FailureBudget: 1,
	})
	if err != nil {
		return err
	}
	prefix := c.out
	if prefix == "" {
		prefix = setup.Graph.Name
	}
	name := setup.Graph.Name
	if err := writeFile(prefix+".links", func(w *bufio.Writer) {
		fmt.Fprintf(w, "# %s: %d nodes, %d links\n", name, setup.Graph.NumNodes(), setup.Graph.NumLinks())
		for _, l := range setup.Graph.Links() {
			fmt.Fprintf(w, "%d %d %g\n", l.A, l.B, l.Capacity)
		}
	}); err != nil {
		return err
	}
	if err := writeFile(prefix+".tm", func(w *bufio.Writer) {
		fmt.Fprintf(w, "# gravity TM seed %d, %s %.4f\n", c.seed, setup.MLULabel(), setup.MLU)
		for _, p := range setup.Pairs {
			fmt.Fprintf(w, "%d %d %g\n", p.Src, p.Dst, setup.TM.At(p))
		}
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s.links and %s.tm (%s %.4f)\n", prefix, prefix, setup.MLULabel(), setup.MLU)
	return nil
}

func writeFile(path string, fill func(*bufio.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fill(w)
	return w.Flush()
}
