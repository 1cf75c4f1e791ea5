package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pcf/internal/core"
	"pcf/internal/eval"
	"pcf/internal/serve"
	"pcf/internal/topozoo"
)

// TestSolveReturnsReportedPlan: the plan -validate and -reservations
// act on is the plan pcfplan reported, for every plan scheme — not a
// re-solve with other tunnels or another formulation. best runs the
// ladder on the instance pcf-cls solves, so where its top rung holds
// both report the same PCF-CLS value; on Xeex best once solved a
// weaker instance and reported 0.1913 against pcf-cls's 0.4605.
func TestSolveReturnsReportedPlan(t *testing.T) {
	for _, topo := range []string{"Sprint", "Xeex"} {
		setup, err := eval.Prepare(eval.Options{Topology: topo, Seed: 1, MaxPairs: 20, FailureBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		reported := map[string]string{}
		for _, name := range []string{eval.SchemeFFC, eval.SchemePCFTF, eval.SchemePCFLS, eval.SchemePCFCLS, eval.SchemeBest} {
			var out bytes.Buffer
			plan, err := solve(context.Background(), &out, setup, name)
			if err != nil {
				t.Fatalf("%s scheme %q: %v", topo, name, err)
			}
			var scheme string
			var value float64
			if _, err := fmt.Sscanf(out.String(), "%s guaranteed demand scale: %f", &scheme, &value); err != nil {
				t.Fatalf("%s scheme %q: unparseable report %q: %v", topo, name, out.String(), err)
			}
			if name != eval.SchemeBest && scheme != name {
				t.Errorf("%s scheme %q reported as %s", topo, name, scheme)
			}
			if plan.Scheme != scheme || fmt.Sprintf("%.4f", plan.Value) != fmt.Sprintf("%.4f", value) {
				t.Errorf("%s scheme %q: reported %s %.4f, returned plan is %s %.4f", topo, name, scheme, value, plan.Scheme, plan.Value)
			}
			reported[name] = fmt.Sprintf("%s %.4f", scheme, value)
		}
		if reported[eval.SchemeBest] != reported[eval.SchemePCFCLS] {
			t.Errorf("%s: best reported %s, pcf-cls %s", topo, reported[eval.SchemeBest], reported[eval.SchemePCFCLS])
		}
	}
}

// TestEntryPointsAgree: a scheme name means one instance and one
// solver at every entry point. For every row of core's scheme table,
// on every Topology Zoo graph at pcfd's default flags, three values are
// bit-equal, each from its own preparation: pcfd's (Server.Solve, the
// path POST /v1/solve and the boot solve take, on the prepared setup's
// CLSInstance, as pcfd serves it), pcfplan's solve and eval.Setup.Run. FFC is the paper's,
// on FFCTunnels tunnels per pair, and best answers on its PCF-CLS rung.
// Xeex is also prepared from a links file, as pcfd -links does. pcfd
// once solved FFC over every tunnel of the PCF-CLS instance (IBM 0.2218
// against pcfplan's 0.3617), refused PCF-LS, and before that solved a
// weaker PCF-CLS instance (Xeex 0.1913 against 0.4605).
func TestEntryPointsAgree(t *testing.T) {
	topos := topozoo.Names()
	if testing.Short() {
		topos = []string{"Xeex", "Integra", "BTNorthAmerica"}
	}
	type source struct{ name, topo, links string }
	var sources []source
	for _, topo := range topos {
		sources = append(sources, source{topo, topo, ""})
	}
	g, err := topozoo.Load("Xeex")
	if err != nil {
		t.Fatal(err)
	}
	var lines strings.Builder
	for _, l := range g.Links() {
		fmt.Fprintf(&lines, "%d %d %g\n", l.A, l.B, l.Capacity)
	}
	links := filepath.Join(t.TempDir(), "xeex.links")
	if err := os.WriteFile(links, []byte(lines.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	sources = append(sources, source{"Xeex -links", "", links})

	ctx := context.Background()
	for _, src := range sources {
		o := eval.Options{Topology: src.topo, LinksFile: src.links, Seed: 1, MaxPairs: 20, FailureBudget: 1}
		servedSetup, err := eval.Prepare(o)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		in, err := servedSetup.CLSInstance()
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		srv, err := serve.NewServer(serve.Config{Instance: in})
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		plannedSetup, err := eval.Prepare(o)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		evalSetup, err := eval.Prepare(o)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		values := map[string]float64{}
		for _, name := range core.SchemeNames() {
			row, _ := core.LookupScheme(name)
			pub, err := srv.Solve(ctx, row)
			if err != nil {
				t.Fatalf("%s %s: pcfd: %v", src.name, name, err)
			}
			planned, err := solve(ctx, io.Discard, plannedSetup, name)
			if err != nil {
				t.Fatalf("%s %s: pcfplan: %v", src.name, name, err)
			}
			res, err := evalSetup.Run(ctx, name)
			if err != nil {
				t.Fatalf("%s %s: eval: %v", src.name, name, err)
			}
			if math.Float64bits(pub.Value) != math.Float64bits(planned.Value) || math.Float64bits(pub.Value) != math.Float64bits(res.Value) ||
				pub.Scheme != planned.Scheme || pub.Scheme != res.Plan.Scheme {
				t.Errorf("%s %s: pcfd %s %v, pcfplan %s %v, eval %s %v", src.name, name,
					pub.Scheme, pub.Value, planned.Scheme, planned.Value, res.Plan.Scheme, res.Value)
			}
			values[name] = pub.Value
			switch name {
			case core.SchemeFFC:
				paper := &core.Instance{
					Graph: evalSetup.Graph, TM: evalSetup.TM, Failures: evalSetup.Failures,
					Tunnels:   evalSetup.Tunnels.Restrict(evalSetup.Opts.FFCTunnels),
					Objective: evalSetup.Opts.Objective,
				}
				want, err := core.SolveFFC(paper, core.SolveOptions{})
				if err != nil {
					t.Fatalf("%s: FFC on %d tunnels: %v", src.name, evalSetup.Opts.FFCTunnels, err)
				}
				if math.Float64bits(pub.Value) != math.Float64bits(want.Value) {
					t.Errorf("%s: FFC %v, want %v on %d tunnels per pair", src.name, pub.Value, want.Value, evalSetup.Opts.FFCTunnels)
				}
			case core.SchemeBest:
				if pub.Scheme != core.SchemePCFCLS || math.Float64bits(pub.Value) != math.Float64bits(values[core.SchemePCFCLS]) {
					t.Errorf("%s: best answered %s %v, PCF-CLS %v", src.name, pub.Scheme, pub.Value, values[core.SchemePCFCLS])
				}
			}
		}
		srv.Close()
	}
}

// TestZeroFailureBudgetRefused: pcfplan -f 0 exits 1 naming -f before
// it prints a header. Options once read a zero budget as unset, so pcfplan
// printed "f=0 (18 scenarios)" and returned f=1's value.
func TestZeroFailureBudgetRefused(t *testing.T) {
	refused(t, "PCFPLAN_TEST_ZERO_F", "^TestZeroFailureBudgetRefused$", []string{"-f", "0"}, "(-f)")
}

// TestTMWithoutLinksRefused: pcfplan -tm without -links exits 1 naming
// both flags before it prints a header. It once ignored -tm and solved
// the -topology graph, exit 0.
func TestTMWithoutLinksRefused(t *testing.T) {
	refused(t, "PCFPLAN_TEST_TM", "^TestTMWithoutLinksRefused$", []string{"-tm", "/nonexistent.tm"}, "-tm", "-links")
}

// refused runs pcfplan on Sprint with args, in a child process the
// test named run re-enters under env, and requires exit 1 with every
// one of want in stderr and no header on stdout.
func refused(t *testing.T, env, run string, args []string, want ...string) {
	if os.Getenv(env) != "" {
		os.Args = append([]string{"pcfplan", "-topology", "Sprint", "-pairs", "10"}, args...)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run="+run)
	cmd.Env = append(os.Environ(), env+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != eval.ExitFailure {
		t.Fatalf("pcfplan %v: %v, want exit %d; stdout %q", args, err, eval.ExitFailure, stdout.String())
	}
	for _, w := range want {
		if !strings.Contains(stderr.String(), w) || strings.Contains(stdout.String(), "f=") {
			t.Fatalf("pcfplan %v: stderr %q does not name %s, or stdout %q has a header", args, stderr.String(), w, stdout.String())
		}
	}
}
