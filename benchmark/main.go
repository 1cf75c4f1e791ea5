// Command benchmark measures PCF end to end and layer by layer: one
// named workload per invocation, in one process, on one P, through the
// system's user-visible surface (serve.Server's HTTP handlers; for the
// fleet workload real loopback HTTP from planner to replicas to front
// end). README.md in this directory has the metric and workload tables
// and the noise protocol; BENCHMARK.json at the repo root is the
// contract the last line of output is written to.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	c, code := parseFlags(os.Args[1:], os.Stdout, os.Stderr)
	if c == nil {
		os.Exit(code)
	}
	// One run at the nominal length takes 20–35 s here; whatever wedges
	// it must not leave a process behind, so past four times that the
	// process exits on its own, non-zero.
	limit := time.Duration(max(1, c.repeat)) * 4 * time.Duration(15+2*c.seconds) * time.Second
	if c.repeat == 0 {
		limit = min(limit, 170*time.Second)
	}
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: watchdog: run exceeded %v, exiting\n", limit)
		os.Exit(3)
	})
	code = c.execute(os.Stdout, os.Stderr)
	watchdog.Stop()
	os.Exit(code)
}

// metric is one reported value. The JSON shape is the driver's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is a parsed command line.
type config struct {
	w       *workload
	seed    int64
	seconds int
	traced  bool
	spans   string
	repeat  int
	out     string
	against string
}

// parseFlags returns nil and an exit code when there is nothing to
// run: a usage error, or -list.
func parseFlags(args []string, stdout, stderr io.Writer) (*config, int) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	name := fs.String("workload", "", "workload to run (see -list)")
	fs.Int64Var(&c.seed, "seed", 1, "request-stream seed: the order of the realize scenarios")
	fs.IntVar(&c.seconds, "seconds", nominalSeconds, "run length the fixed repetition counts are scaled to")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics, spans written to -spans")
	fs.StringVar(&c.spans, "spans", "", "traced run: write spans as JSON lines here (default .bench_build/spans/<workload>.jsonl)")
	list := fs.Bool("list", false, "list workloads and exit")
	fs.IntVar(&c.repeat, "repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print medians and quartiles")
	fs.StringVar(&c.out, "out", "", "with -repeat: merge the set of runs into this JSON file")
	fs.StringVar(&c.against, "against", "", "with -repeat: compare the set with this file's, by the bounds in BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}
	if *list {
		for _, w := range workloads {
			fmt.Fprintf(stdout, "%-18s %s\n", w.name, w.why)
		}
		return nil, 0
	}
	if c.w = findWorkload(*name); c.w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (try -list)\n", *name)
		return nil, 2
	}
	if c.seconds < 1 || c.seconds > 60 || (*trace != 0 && *trace != 1) || c.repeat < 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be 1..60, -trace 0 or 1, -repeat not negative")
		return nil, 2
	}
	c.traced = *trace == 1
	if c.spans == "" {
		c.spans = ".bench_build/spans/" + c.w.name + ".jsonl"
	}
	return &c, 0
}

// execute runs what the command line asked for and returns the exit
// code.
func (c *config) execute(stdout, stderr io.Writer) int {
	// Single P for every gated phase: the timings are latencies of the
	// work done, not of a schedule that depends on a second, shared,
	// vCPU being free.
	runtime.GOMAXPROCS(1)
	ctx := context.Background()
	if c.repeat > 0 {
		return repeatRuns(ctx, c.w, c.seed, c.seconds, c.repeat, c.out, c.against, stdout, stderr)
	}
	res, err := runOnce(ctx, c.w, c.seed, c.seconds, c.traced, c.spans, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runOnce runs one workload once and returns what the last output line
// reports. Every metric is also printed by name with its unit.
func runOnce(ctx context.Context, w *workload, seed int64, seconds int, traced bool, spansPath string, stdout, stderr io.Writer) (*result, error) {
	k := newCalibrator()
	t := &tally{}
	r := w.reps.scaled(seconds)
	var ms *metricSet
	var err error
	if traced {
		ms, err = tracedRun(ctx, w, seed, r, k, t, spansPath)
	} else {
		ms, err = gatedRun(ctx, w, seed, r, k, t)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range t.firstErrs {
		fmt.Fprintf(stderr, "benchmark: failed operation: %v\n", e)
	}
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%d trace=%v\n", w.name, seed, seconds, traced)
	ms.print(stdout)
	fmt.Fprintf(stdout, "%-28s %d\n%-28s %d\n", "ops_attempted", t.attempted, "ops_failed", t.failed)
	if bad := ms.notFinite(); len(bad) > 0 {
		return nil, fmt.Errorf("metrics without a finite value (a phase produced no samples): %v", bad)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms.m}, nil
}

// gatedRun is the untraced run: the end-to-end metrics, all of them on
// every workload.
func gatedRun(ctx context.Context, w *workload, seed int64, r reps, k *calibrator, t *tally) (*metricSet, error) {
	e, o, err := runEndToEnd(ctx, w, seed, r, k, t)
	if e != nil {
		err = errors.Join(err, e.close())
	}
	if err != nil {
		return nil, err
	}
	ms := newMetricSet()
	ms.set("setup_s", median(o.setup.cal), "s")
	ms.set("replan_ms", median(o.replan.cal), "ms")
	ms.set("replan_alloc_mb", median(o.replanAllocMB), "MB")
	ms.set("validate_ms", median(o.validate.cal), "ms")
	ms.set("validate_sampled_ms", median(o.sampled.cal), "ms")
	ms.set("realize_us", median(o.realize.cal), "us")
	ms.set("realize_alloc_kb", median(o.realizeAllocKB), "KB")
	ms.note("samples: setup %d, replan %d, validate %d x%d, sampled %d, realize %d x%d requests (%d collections)",
		len(o.setup.cal), len(o.replan.cal), len(o.validate.cal), r.validateBatch,
		len(o.sampled.cal), len(o.realize.cal), len(o.latencyUS)/max(1, len(o.realize.cal)), o.realizeGCs)
	ms.note("raw medians: setup %.4g s, replan %.4g ms, validate %.4g ms, sampled %.4g ms, realize %.4g us; kernel p50 %.3f p90 %.3f ms",
		median(o.setup.raw), median(o.replan.raw), median(o.validate.raw), median(o.sampled.raw),
		median(o.realize.raw), median(k.ms), quantile(k.ms, 0.9))
	return ms, nil
}

// metricSet keeps metrics in insertion order for printing.
type metricSet struct {
	m     map[string]metric
	order []string
	notes []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name string, v float64, unit string) {
	if _, dup := s.m[name]; !dup {
		s.order = append(s.order, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

func (s *metricSet) note(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

func (s *metricSet) print(w io.Writer) {
	for _, name := range s.order {
		m := s.m[name]
		fmt.Fprintf(w, "%-28s %.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range s.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// notFinite lists metrics that are NaN or infinite, which JSON cannot
// carry and which always mean a phase recorded nothing.
func (s *metricSet) notFinite() []string {
	var bad []string
	for name, m := range s.m {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}
