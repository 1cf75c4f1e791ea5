package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(ten); !near(got, 5.5) {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := quantile(ten, 0.9); !near(got, 9.1) {
		t.Errorf("p90 = %g, want 9.1", got)
	}
	if got := quantile([]float64{7}, 0.99); !near(got, 7) {
		t.Errorf("p99 of one value = %g, want 7", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %g, want NaN", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// Python: statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{5, 4, 3, 2, 1}); !near(q1, 1.5) || !near(q3, 4.5) {
		t.Errorf("quartiles of 1..5 = %g, %g, want 1.5, 4.5", q1, q3)
	}
	// Python: statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); !near(q1, 0.75) || !near(q3, 2.25) {
		t.Errorf("quartiles of 1,2 = %g, %g, want 0.75, 2.25", q1, q3)
	}
	if got := spread(ten); !near(got, 1) {
		t.Errorf("spread of 1..10 = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if !near(ten[0], 10) {
		t.Error("quantile helpers must not reorder their input")
	}
}

func TestCalibration(t *testing.T) {
	for _, c := range []struct{ raw, before, after, want float64 }{
		{10, 5, 5, 10},  // reference-speed host: unchanged
		{10, 10, 10, 5}, // host at half speed: the work would take half as long
		{12, 4, 8, 10},  // speed changed during the sample: the mean of both
	} {
		if got := calibrate(c.raw, c.before, c.after); !near(got, c.want) {
			t.Errorf("calibrate(%g, %g, %g) = %g, want %g", c.raw, c.before, c.after, got, c.want)
		}
	}
	k := newCalibrator()
	cal, raw := k.sample(func() time.Duration { return 30 * time.Millisecond })
	if !near(raw, 30) {
		t.Errorf("raw = %g ms, want the 30 ms the op reported", raw)
	}
	if len(k.ms) != 2 {
		t.Fatalf("kernel ran %d times around one sample, want 2", len(k.ms))
	}
	if want := calibrate(30, k.ms[0], k.ms[1]); !near(cal, want) {
		t.Errorf("calibrated = %g, want %g", cal, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replan", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.solve", Start: 5, End: 60},
		{ID: 3, Parent: 1, Name: "serve.publish", Start: 60, End: 95},
		{ID: 4, Parent: 3, Name: "routing.validate", Start: 61, End: 80},
		{ID: 5, Parent: 3, Name: "routing.newsweep", Start: 80, End: 94},
		// Overlapping siblings are covered once; a child reaching past
		// its parent counts only for the part inside.
		{ID: 6, Name: "converge", Start: 200, End: 300},
		{ID: 7, Parent: 6, Name: "fleet.apply", Start: 210, End: 260},
		{ID: 8, Parent: 6, Name: "fleet.apply", Start: 240, End: 280},
		{ID: 9, Parent: 6, Name: "fleet.apply", Start: 290, End: 320},
	}
	want := map[int]int64{1: 10, 2: 55, 3: 2, 4: 19, 5: 14, 6: 20, 7: 50, 8: 40, 9: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	total, self := layerTimes(spans)
	if !near(total["fleet.apply"], 120e-6) || !near(self["converge"], 20e-6) {
		t.Errorf("layerTimes: fleet.apply total %g ms, converge self %g ms", total["fleet.apply"], self["converge"])
	}
}

func TestTracerWritesJSONLines(t *testing.T) {
	tr := newTracer()
	root := tr.begin("replan", 0, 1)
	tr.call("core.solve", root, 1, func() map[string]float64 { return map[string]float64{"lp_iterations": 702} })
	tr.end(root, nil)
	path := filepath.Join(t.TempDir(), "sub", "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Op != 1 || !near(got[1].Counts["lp_iterations"], 702) {
		t.Errorf("spans read back: %+v", got)
	}
	if got[0].End < got[1].End || got[1].Start < got[0].Start {
		t.Errorf("child %+v not inside parent %+v", got[1], got[0])
	}
}

func TestScenarioCycleIsSeeded(t *testing.T) {
	a, b := scenarioCycle(76, 2, 7), scenarioCycle(76, 2, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different cycles")
	}
	if reflect.DeepEqual(a, scenarioCycle(76, 2, 8)) {
		t.Error("different seeds gave the same cycle")
	}
	if len(a) != cycleLen {
		t.Errorf("f=2 cycle has %d entries, want %d", len(a), cycleLen)
	}
	singles, pairs := map[string]bool{}, map[string]bool{}
	for _, links := range a {
		if strings.Contains(links, ",") {
			pairs[links] = true
		} else {
			singles[links] = true
		}
	}
	if len(singles) != 76 || len(pairs) != cycleLen-76 {
		t.Errorf("f=2 cycle: %d distinct singles and %d distinct pairs, want 76 and %d", len(singles), len(pairs), cycleLen-76)
	}
	// A short list is repeated whole, so every batch weighs every
	// scenario equally.
	short := scenarioCycle(17, 1, 1)
	count := map[string]int{}
	for _, links := range short {
		count[links]++
	}
	if len(short) != 510 || len(count) != 17 {
		t.Fatalf("17-link f=1 cycle: %d entries over %d scenarios, want 510 over 17", len(short), len(count))
	}
	for links, n := range count {
		if n != 30 {
			t.Errorf("scenario %s appears %d times, want 30", links, n)
		}
	}
	// A long list is a seeded sample without repeats.
	long := scenarioCycle(2000, 1, 1)
	count = map[string]int{}
	for _, links := range long {
		count[links]++
	}
	if len(long) != cycleLen || len(count) != cycleLen {
		t.Errorf("2000-link cycle: %d entries, %d distinct, want %d distinct", len(long), len(count), cycleLen)
	}
	if _, err := scenarioOf(a[len(a)-1]); err != nil {
		t.Errorf("scenarioOf(%q): %v", a[len(a)-1], err)
	}
}

func TestRepsScaling(t *testing.T) {
	for _, w := range workloads {
		nominal := w.reps.scaled(nominalSeconds)
		if nominal != w.reps {
			t.Errorf("%s: scaling to the nominal length changed the counts: %+v", w.name, nominal)
		}
		for _, n := range []int{nominal.replan, nominal.validate, nominal.sampled, nominal.realize} {
			if n < 5 {
				t.Errorf("%s: a timing metric has %d samples at the nominal length, want at least 5: %+v", w.name, n, nominal)
			}
		}
		small := w.reps.scaled(1)
		if small.setup < 1 || small.replan < 2 || small.realize < 2 || small.realizeWarm != w.reps.realizeWarm {
			t.Errorf("%s: counts at 1 s: %+v", w.name, small)
		}
		if h := nominal.halved(); h.setup != 1 || h.replan < 2 || h.replan > nominal.replan {
			t.Errorf("%s: halved counts: %+v", w.name, h)
		}
	}
}

func readContract(t *testing.T) *contract {
	t.Helper()
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractNamesTheWorkloads(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
}

// runQuietly runs the program as main would and returns the last line
// of its output decoded.
func runQuietly(t *testing.T, args ...string) result {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var stdout, stderr bytes.Buffer
	c, code := parseFlags(args, &stdout, &stderr)
	if c != nil {
		code = c.execute(&stdout, &stderr)
	}
	if code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	for name, m := range res.Metrics {
		if !strings.Contains(stdout.String(), name+" ") {
			t.Errorf("metric %s (%s) is in the result line but not printed by name", name, m.Unit)
		}
	}
	return res
}

// TestSmokeSprint runs sprint-tf-f1 at a twentieth of the repetitions,
// untraced and traced, and checks the output against BENCHMARK.json:
// every metric named there, with its unit, and nothing else.
func TestSmokeSprint(t *testing.T) {
	c := readContract(t)
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, mode := range []struct {
		trace string
		want  []contractMetric
	}{{"0", c.EndToEnd}, {"1", c.PerLayer}} {
		res := runQuietly(t, "-workload", "sprint-tf-f1", "-seed", "3", "-seconds", "1", "-trace", mode.trace, "-spans", spans)
		if len(res.Metrics) != len(mode.want) {
			t.Errorf("trace %s: %d metrics printed, BENCHMARK.json lists %d", mode.trace, len(res.Metrics), len(mode.want))
		}
		for _, m := range mode.want {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("trace %s: metric %s missing from the output", mode.trace, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s printed in %q, BENCHMARK.json says %q", mode.trace, m.Name, got.Unit, m.Unit)
			}
		}
	}
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Errorf("the traced run wrote no spans: %v", err)
	}
}

// TestNothingOutlivesAFleetRun stands the loopback fleet up on the
// small Sprint instance, drives a reduced run through it, closes it,
// and then wants every goroutine gone and every listener refusing
// connections.
func TestNothingOutlivesAFleetRun(t *testing.T) {
	w := *findWorkload("sprint-tf-f1")
	w.fleet = true
	ctx := context.Background()
	before := runtime.NumGoroutine()

	e, err := setUp(ctx, &w)
	if err != nil {
		t.Fatal(err)
	}
	addrs := e.fleet.addrs
	if len(addrs) != 1+numReplicas+1 {
		t.Errorf("%d listeners, want planner + %d replicas + front end", len(addrs), numReplicas)
	}
	var o endToEnd
	ops := &tally{}
	r := reps{replan: 2, validate: 2, validateBatch: 1, sampled: 2, realize: 2, realizePasses: 1, realizeWarm: 600}
	k := newCalibrator()
	o.replanPhase(ctx, e, r, k, ops)
	e.fleet.fe.ProbeOnce(ctx)
	realize, err := o.realizeReader(ctx, e, 1, r, k, ops)
	if err != nil {
		t.Fatal(err)
	}
	interleave([]reader{o.validateReader(ctx, e, r, k, ops), realize})
	if ops.failed != 0 || len(o.converge.cal) != 2 || len(o.realize.cal) != 2 {
		t.Errorf("reduced fleet run: %d of %d operations failed (%v), %d converge and %d realize samples",
			ops.failed, ops.attempted, ops.firstErrs, len(o.converge.cal), len(o.realize.cal))
	}
	if v, _ := e.fleet.conv.check(e.epoch); v != 0 {
		t.Errorf("%d fleet invariant violations after %d epochs", v, e.epoch)
	}
	if err := e.close(); err != nil {
		t.Errorf("close: %v", err)
	}

	for _, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			t.Errorf("listener %s still accepts connections after close", addr)
		}
	}
	// Connection goroutines unwind just after Shutdown returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the run, %d after it:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

func TestCompareSets(t *testing.T) {
	var c contract
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"replan_ms","unit":"ms","better":"lower","bound":0.1},
		{"name":"replan_alloc_mb","unit":"MB","better":"lower","bound":0.02}]}`), &c); err != nil {
		t.Fatal(err)
	}
	base := map[string][]float64{"replan_ms": {100, 101, 99}, "replan_alloc_mb": {8, 8, 8}}
	for _, tc := range []struct {
		name string
		cur  map[string][]float64
		code int
		want string
	}{
		{"same", map[string][]float64{"replan_ms": {104, 105, 106}, "replan_alloc_mb": {8.1, 8.1, 8.1}}, 0, "within bound"},
		{"slower", map[string][]float64{"replan_ms": {111, 112, 113}, "replan_alloc_mb": {8, 8, 8}}, 1, "WORSE"},
		{"more garbage", map[string][]float64{"replan_ms": {100, 100, 100}, "replan_alloc_mb": {8.2, 8.2, 8.2}}, 1, "WORSE"},
		{"faster", map[string][]float64{"replan_ms": {80, 80, 80}, "replan_alloc_mb": {8, 8, 8}}, 0, "better"},
		{"missing", map[string][]float64{"replan_ms": {100}}, 1, "missing"},
	} {
		var out bytes.Buffer
		if code := compareSets("w", tc.cur, base, &c, &out); code != tc.code || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d, output wanting %q:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}

func TestInprocTargetReusesRequests(t *testing.T) {
	calls := 0
	tgt := &inproc{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.Header().Set("X-Call", r.URL.Query().Get("n"))
		if calls == 2 {
			w.WriteHeader(http.StatusTeapot)
		}
		_, _ = io.WriteString(w, "reply")
	})}
	req, err := tgt.newRequest(context.Background(), http.MethodPost, "/v1/realize?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var b batch
	for i := 0; i < 3; i++ {
		if err := b.send(tgt, req); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []int{http.StatusOK, http.StatusTeapot, http.StatusOK} {
		if status, body := b.reply(i); status != want || string(body) != "reply" {
			t.Errorf("reply %d: %d %q, want %d \"reply\"", i, status, body, want)
		}
	}
}
