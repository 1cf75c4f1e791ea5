package eval

import (
	"fmt"
	"os"

	"pcf/internal/core"
	"pcf/internal/failures"
	"pcf/internal/mcf"
	"pcf/internal/topology"
	"pcf/internal/traffic"
	"pcf/internal/tunnels"
)

// PrepareFiles builds a Setup from user-supplied topology (and
// optionally traffic) files in cmd/topogen's text format, the
// file-based counterpart of Prepare. tmPath may be empty, in which
// case a gravity matrix is generated from o.Seed. Unlike Prepare, the
// traffic matrix is not rescaled to a target MLU — the files are taken
// as given; the returned MLU is the optimal no-failure MLU of the
// loaded matrix.
func PrepareFiles(linksPath, tmPath string, o Options) (*Setup, error) {
	if err := o.check(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	lf, err := os.Open(linksPath)
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	g, err := topology.ReadLinks(lf, linksPath)
	if err != nil {
		return nil, err
	}
	var tm *traffic.Matrix
	if tmPath != "" {
		tf, err := os.Open(tmPath)
		if err != nil {
			return nil, err
		}
		defer tf.Close()
		tm, err = traffic.ReadMatrix(tf, g.NumNodes())
		if err != nil {
			return nil, err
		}
	} else {
		tm = traffic.Gravity(g, traffic.GravityOptions{Seed: o.Seed, Jitter: 0.4})
	}
	keep := tm.TopPairs(o.MaxPairs)
	tm = tm.Restrict(keep)
	mlu, err := mcf.MinMLU(g, tm)
	if err != nil {
		return nil, err
	}
	ts, err := tunnels.Select(g, keep, tunnels.SelectOptions{PerPair: o.TunnelsPerPair})
	if err != nil {
		return nil, err
	}
	opts := o
	opts.Topology = linksPath
	return &Setup{
		Opts:     opts,
		Graph:    g,
		TM:       tm,
		MLU:      mlu,
		Pairs:    keep,
		Tunnels:  ts,
		Failures: failures.SingleLinks(g, o.FailureBudget),
	}, nil
}

// PrepareFlags prepares the Setup pcfplan and pcfd name with their
// flags: from the links file (and traffic file) when linksPath is set,
// else from o.Topology. It refuses a failure budget below 1, naming
// -f: Options reads a zero FailureBudget as unset, and so as 1, but a
// -f given as 0 is not unset.
func PrepareFlags(linksPath, tmPath string, o Options) (*Setup, error) {
	if o.FailureBudget < 1 {
		return nil, fmt.Errorf("eval: the failure budget (-f) must be at least 1, got %d", o.FailureBudget)
	}
	if linksPath != "" {
		return PrepareFiles(linksPath, tmPath, o)
	}
	return Prepare(o)
}

// PrepareServed prepares what pcfd serves in every role: the Setup its
// flags name (PrepareFlags) and that setup's CLSInstance, the one
// instance every row of core's scheme table is solved on. pcfplan and
// Run solve the same rows on the same instance, so the three report
// the same value for every scheme name.
func PrepareServed(linksPath, tmPath string, o Options) (*Setup, *core.Instance, error) {
	setup, err := PrepareFlags(linksPath, tmPath, o)
	if err != nil {
		return nil, nil, err
	}
	in, err := setup.CLSInstance()
	return setup, in, err
}
