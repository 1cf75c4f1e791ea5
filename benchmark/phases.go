package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// cycleLen is the length of one pass over the realize scenarios, which
// is also one timed batch: long enough (≥ 20 ms) to time as a unit, and
// every batch of a run has exactly the same content.
const cycleLen = 500

// tally counts operations. A failed check is a failed operation, not a
// panic: the run goes on and reports correct=false.
type tally struct {
	attempted, failed int
	firstErrs         []error // the first few, for the log
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.firstErrs) < 5 {
			t.firstErrs = append(t.firstErrs, err)
		}
	}
}

// series is one timing metric's samples, calibrated and raw, in the
// metric's own unit.
type series struct {
	cal, raw []float64
}

func (s *series) add(cal, raw float64) {
	s.cal = append(s.cal, cal)
	s.raw = append(s.raw, raw)
}

// endToEnd is everything one pass over a workload's user-visible
// operations measured.
type endToEnd struct {
	setup          series // s
	replan         series // ms; fleet: request → last replica swapped
	respond        series // ms; request → response (equals replan off the fleet)
	converge       series // ms; fleet only: planner response → last replica swapped
	validate       series // ms per call
	sampled        series // ms
	realize        series // µs per request, one value per batch
	replanAllocMB  []float64
	realizeAllocKB []float64
	latencyUS      []float64 // every timed realize request, raw
	shed           int       // 503 responses
	realizeGCs     int       // collections during the timed realize batches
}

// runEndToEnd sets the system up r.setup times, keeps the last one and
// drives every user-visible operation against it. The caller closes the
// returned env.
func runEndToEnd(ctx context.Context, w *workload, seed int64, r reps, k *calibrator, t *tally) (*env, *endToEnd, error) {
	out := &endToEnd{}
	var e *env
	for i := 0; i < r.setup; i++ {
		var err error
		cal, raw := k.gcThenSample(wall(func() { e, err = setUp(ctx, w) }))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		t.op(nil) // boot solve
		t.op(nil) // first realize
		out.setup.add(cal/1000, raw/1000)
		if i < r.setup-1 {
			if err := e.close(); err != nil {
				return nil, nil, fmt.Errorf("tearing down set-up %d: %w", i+1, err)
			}
		}
	}
	out.replanPhase(ctx, e, r, k, t)
	if e.fleet != nil {
		// Probes may have caught the replicas mid-convergence; settle
		// the front end's epoch view before the read phases.
		e.fleet.fe.ProbeOnce(ctx)
	}
	realize, err := out.realizeReader(ctx, e, seed, r, k, t)
	if err != nil {
		return e, nil, err
	}
	interleave([]reader{out.validateReader(ctx, e, r, k, t), out.sampledReader(ctx, e, r, k, t), realize})
	if e.fleet != nil {
		e.fleet.audit(e.epoch, t)
	}
	return e, out, nil
}

// reader is one read-only operation, driven a sample at a time.
type reader struct {
	n      int    // timed samples to take
	warm   func() // the discarded repetition(s)
	sample func() // one timed sample
}

// interleaveRounds is how finely the read operations are woven.
const interleaveRounds = 10

// interleave warms every reader and then takes their samples in
// rounds, a tenth of each reader's samples per round, instead of one
// reader after the other. The host's speed wanders on a scale of
// seconds; a metric whose samples all fall in the same two seconds of
// the run inherits whatever those two seconds were like, one whose
// samples are spread over the whole read phase averages over it. The
// readers do not disturb each other: validation builds its own sweep
// and the realize path's caches and telemetry ring are not touched by
// it.
func interleave(readers []reader) {
	for _, rd := range readers {
		rd.warm()
	}
	done := make([]int, len(readers))
	for round := 1; round <= interleaveRounds; round++ {
		for i, rd := range readers {
			for ; done[i] < rd.n*round/interleaveRounds; done[i]++ {
				rd.sample()
			}
		}
	}
}

// heapCounters reads the cumulative bytes allocated and collections
// completed.
func heapCounters() (alloc uint64, collections uint32) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.NumGC
}

func totalAlloc() uint64 {
	alloc, _ := heapCounters()
	return alloc
}

func (o *endToEnd) replanPhase(ctx context.Context, e *env, r reps, k *calibrator, t *tally) {
	for i := 0; i <= r.replan; i++ {
		var err error
		var total, converge time.Duration
		var alloc uint64
		cal, raw := k.gcThenSample(func() time.Duration {
			before := totalAlloc()
			_, total, converge, err = e.replan(ctx)
			alloc = totalAlloc() - before
			return total
		})
		t.op(err)
		if i == 0 || err != nil {
			continue // warm-up, or nothing valid to record
		}
		o.replan.add(cal, raw)
		resp := float64(total-converge) / float64(time.Millisecond)
		o.respond.add(cal*resp/raw, resp)
		o.replanAllocMB = append(o.replanAllocMB, float64(alloc)/(1<<20))
		if e.fleet != nil {
			c := float64(converge) / float64(time.Millisecond)
			o.converge.add(cal*c/raw, c)
		}
	}
}

type validateResponse struct {
	Epoch           uint64          `json:"epoch"`
	Valid           bool            `json:"valid"`
	Scenarios       int             `json:"scenarios"`
	Coverage        json.RawMessage `json:"coverage"`
	CoverageSummary string          `json:"coverage_summary"`
}

// checkValidate verifies one /v1/validate reply. scenarios < 0 skips
// the count check (the sampled model adds its draws to the count).
func checkValidate(status int, body []byte, epoch uint64, scenarios int) (*validateResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("validate: status %d: %s", status, body)
	}
	var v validateResponse
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("validate: decoding response: %w", err)
	}
	switch {
	case !v.Valid:
		return nil, fmt.Errorf("validate: valid=false")
	case v.Epoch != epoch:
		return nil, fmt.Errorf("validate: answered on epoch %d, current is %d", v.Epoch, epoch)
	case scenarios >= 0 && v.Scenarios != scenarios:
		return nil, fmt.Errorf("validate: swept %d scenarios, the failure set has %d", v.Scenarios, scenarios)
	}
	return &v, nil
}

// batch sends reqs back to back and returns the statuses and bodies.
// The bodies share one buffer, so keeping them for the check after the
// clock stops costs the timed region a copy and nothing else.
type batch struct {
	body   bytes.Buffer
	ends   []int
	status []int
}

func (b *batch) reset() {
	b.body.Reset()
	b.ends = b.ends[:0]
	b.status = b.status[:0]
}

func (b *batch) send(t target, req *http.Request) error {
	status, err := t.do(req, &b.body)
	b.status = append(b.status, status)
	b.ends = append(b.ends, b.body.Len())
	return err
}

func (b *batch) reply(i int) (int, []byte) {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.status[i], b.body.Bytes()[start:b.ends[i]]
}

func (o *endToEnd) countShed(b *batch) {
	for _, s := range b.status {
		if s == http.StatusServiceUnavailable {
			o.shed++
		}
	}
}

func (o *endToEnd) validateReader(ctx context.Context, e *env, r reps, k *calibrator, t *tally) reader {
	req, err := e.serving.newRequest(ctx, http.MethodGet, "/v1/validate")
	if err != nil {
		t.op(err)
		return reader{warm: func() {}}
	}
	var b batch
	once := func(record bool) {
		b.reset()
		var sendErr error
		cal, raw := k.gcThenSample(wall(func() {
			for j := 0; j < r.validateBatch && sendErr == nil; j++ {
				sendErr = b.send(e.serving, req)
			}
		}))
		ok := sendErr == nil
		for j := range b.status {
			status, body := b.reply(j)
			_, err := checkValidate(status, body, e.epoch, e.scenarios)
			if j == len(b.status)-1 && sendErr != nil {
				err = sendErr
			}
			t.op(err)
			ok = ok && err == nil
		}
		o.countShed(&b)
		if record && ok {
			n := float64(r.validateBatch)
			o.validate.add(cal/n, raw/n)
		}
	}
	return reader{n: r.validate, warm: func() { once(false) }, sample: func() { once(true) }}
}

func (o *endToEnd) sampledReader(ctx context.Context, e *env, r reps, k *calibrator, t *tally) reader {
	req, err := e.serving.newRequest(ctx, http.MethodGet,
		"/v1/validate?model=sampled&p=0.01&samples=1000&seed="+strconv.Itoa(contentSeed))
	if err != nil {
		t.op(err)
		return reader{warm: func() {}}
	}
	var b batch
	var first *validateResponse
	once := func(record bool) {
		b.reset()
		var err error
		cal, raw := k.gcThenSample(wall(func() { err = b.send(e.serving, req) }))
		var v *validateResponse
		if err == nil {
			status, body := b.reply(0)
			v, err = checkValidate(status, body, e.epoch, -1)
		}
		if err == nil {
			if first == nil {
				first = v
			} else if v.CoverageSummary != first.CoverageSummary || !bytes.Equal(v.Coverage, first.Coverage) {
				err = errors.New("sampled validate: coverage report changed between repetitions of one seed")
			}
		}
		t.op(err)
		o.countShed(&b)
		if record && err == nil {
			o.sampled.add(cal, raw)
		}
	}
	return reader{n: r.sampled, warm: func() { once(false) }, sample: func() { once(true) }}
}

// contentSeed fixes which scenarios and which sampled draws a workload
// uses, whatever --seed says: runs with different seeds must measure
// the same work, or the spread between them measures the inputs (a
// 424-pair sample of BTNorthAmerica's 2850 holds 25 ± 5 cold-fallback
// scenarios, each six times the cost of an SMW one).
const contentSeed = 1

// scenarioCycle is one pass over the realize scenarios as ?links=
// values. The content is fixed per instance: every single-link
// scenario (an even stride of cycleLen of them when there are more);
// with a budget of two, topped up to cycleLen with link pairs; a short
// list repeated whole up to about cycleLen. seed gives the order, which
// is what the sweep's signature cache, the telemetry ring and the
// allocator see differently from run to run.
func scenarioCycle(numLinks, budget int, seed int64) []string {
	var cycle []string
	singles := min(numLinks, cycleLen)
	for i := 0; i < singles; i++ {
		cycle = append(cycle, strconv.Itoa(i*numLinks/singles))
	}
	if budget >= 2 && numLinks >= 2 {
		rng := rand.New(rand.NewSource(contentSeed))
		seen := map[[2]int]bool{}
		for len(cycle) < cycleLen && len(seen) < numLinks*(numLinks-1)/2 {
			a, b := rng.Intn(numLinks), rng.Intn(numLinks)
			if a > b {
				a, b = b, a
			}
			if a == b || seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			cycle = append(cycle, strconv.Itoa(a)+","+strconv.Itoa(b))
		}
	}
	for once := len(cycle); len(cycle) < cycleLen; {
		cycle = append(cycle, cycle[:once]...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

type realizeResponse struct {
	Epoch uint64  `json:"epoch"`
	MLU   float64 `json:"mlu"`
}

func checkRealize(status int, body []byte, epoch uint64) error {
	if status != http.StatusOK {
		return fmt.Errorf("realize: status %d: %s", status, strings.TrimSpace(string(body)))
	}
	var v realizeResponse
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Errorf("realize: decoding response: %w", err)
	}
	if v.Epoch != epoch {
		return fmt.Errorf("realize: answered on epoch %d, current is %d", v.Epoch, epoch)
	}
	if !(v.MLU <= 1+1e-6) {
		return fmt.Errorf("realize: mlu %g exceeds 1", v.MLU)
	}
	return nil
}

// realizeRequests builds one reusable request per cycle entry.
func realizeRequests(ctx context.Context, t target, cycle []string) ([]*http.Request, error) {
	reqs := make([]*http.Request, len(cycle))
	for i, links := range cycle {
		req, err := t.newRequest(ctx, http.MethodPost, "/v1/realize?links="+links)
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	return reqs, nil
}

// realizeBatch sends one pass over reqs and checks every reply after
// the clock has stopped. lat, when non-nil, receives each request's
// time in µs.
func realizeBatch(t target, reqs []*http.Request, b *batch, epoch uint64, ops *tally, lat *[]float64) (elapsed time.Duration, alloc uint64, collections uint32, ok bool) {
	b.reset()
	var sendErr error
	alloc0, gc0 := heapCounters()
	start := time.Now()
	prev := start
	for _, req := range reqs {
		if sendErr = b.send(t, req); sendErr != nil {
			break
		}
		if lat != nil {
			now := time.Now()
			*lat = append(*lat, float64(now.Sub(prev))/float64(time.Microsecond))
			prev = now
		}
	}
	elapsed = time.Since(start)
	alloc1, gc1 := heapCounters()
	ok = sendErr == nil
	for i := range b.status {
		status, body := b.reply(i)
		err := checkRealize(status, body, epoch)
		if i == len(b.status)-1 && sendErr != nil {
			err = sendErr
		}
		ops.op(err)
		ok = ok && err == nil
	}
	return elapsed, alloc1 - alloc0, gc1 - gc0, ok
}

func (o *endToEnd) realizeReader(ctx context.Context, e *env, seed int64, r reps, k *calibrator, t *tally) (reader, error) {
	cycle := scenarioCycle(e.inst.Graph.NumLinks(), e.inst.Failures.Budget, seed)
	reqs, err := realizeRequests(ctx, e.serving, cycle)
	if err != nil {
		return reader{}, err
	}
	var b batch
	o.latencyUS = make([]float64, 0, r.realize*r.realizePasses*len(reqs))
	warm := func() {
		for sent := 0; sent < r.realizeWarm; sent += len(reqs) {
			realizeBatch(e.serving, reqs[:min(len(reqs), r.realizeWarm-sent)], &b, e.epoch, t, nil)
		}
	}
	sample := func() {
		var alloc uint64
		var ok bool
		// No collection forced here: a realize sample carries its own
		// GC cost, that is what realize_alloc_kb buys; it is long enough
		// to hold several collections.
		cal, raw := k.sample(func() time.Duration {
			var total time.Duration
			ok = true
			for p := 0; p < r.realizePasses; p++ {
				d, a, gcs, passOK := realizeBatch(e.serving, reqs, &b, e.epoch, t, &o.latencyUS)
				total, alloc, ok = total+d, alloc+a, ok && passOK
				o.realizeGCs += int(gcs)
				o.countShed(&b)
			}
			return total
		})
		if !ok {
			return
		}
		n := float64(r.realizePasses * len(reqs))
		o.realize.add(cal*1000/n, raw*1000/n)
		o.realizeAllocKB = append(o.realizeAllocKB, float64(alloc)/1024/n)
	}
	return reader{n: r.realize, warm: warm, sample: sample}, nil
}
