// pcftop is a live terminal view of a pcfd daemon, driven by the
// GET /v1/telemetry/tail long-poll endpoint: request rate and outcome
// mix over a sliding window, the served epoch and scheme, whether a
// breaker is open, realized MLU trend, and the last solve/publish. It
// needs no access to the daemon's state dir — everything it shows is
// the telemetry record stream.
//
//	pcftop -addr http://localhost:8080
//	pcftop -addr http://localhost:8080 -once      # one snapshot, no TTY loop
//
// See DESIGN.md §16 for the record schema and README.md for a
// walkthrough against a live daemon.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"pcf/internal/telemetry"
)

// model is the rolling view state pcftop derives from the record
// stream. It is pure bookkeeping — observe records, render a frame —
// so the display logic is unit-testable without a daemon.
type model struct {
	window time.Duration

	recent []telemetry.Record // request records inside the window
	epoch  uint64
	scheme string

	breaker string // "<scheme> open|closed", from the last breaker record

	lastSolve    *telemetry.Record
	lastPublish  *telemetry.Record
	lastValidate *telemetry.Record

	mlus []float64 // recent realized MLUs, oldest first
}

func newModel(window time.Duration) *model {
	return &model{window: window}
}

// observe folds one record into the view state.
func (m *model) observe(r telemetry.Record) {
	if r.Epoch > m.epoch {
		m.epoch = r.Epoch
	}
	switch r.Kind {
	case telemetry.KindRequest:
		m.recent = append(m.recent, r)
		if mlu := r.Field("mlu"); mlu > 0 {
			m.mlus = append(m.mlus, mlu)
			if len(m.mlus) > 60 {
				m.mlus = m.mlus[len(m.mlus)-60:]
			}
		}
	case telemetry.KindSolve:
		rc := r
		m.lastSolve = &rc
	case telemetry.KindPublish:
		rc := r
		m.lastPublish = &rc
		if r.Scheme != "" {
			m.scheme = r.Scheme
		}
	case telemetry.KindValidate:
		rc := r
		m.lastValidate = &rc
	case telemetry.KindBreaker:
		m.breaker = r.Scheme + " closed"
		if r.Field("open") > 0 {
			m.breaker = r.Scheme + " open"
		}
	}
}

// prune drops request records that slid out of the window.
func (m *model) prune(now time.Time) {
	cutoff := now.Add(-m.window)
	keep := m.recent[:0]
	for _, r := range m.recent {
		if r.Time.After(cutoff) {
			keep = append(keep, r)
		}
	}
	m.recent = keep
}

// sparkline renders values as a block-character trend, scaled to the
// observed min/max.
func sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	var b strings.Builder
	for _, v := range vs {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[i])
	}
	return b.String()
}

// render produces one display frame at the given instant.
func (m *model) render(addr string, now time.Time) string {
	m.prune(now)
	var b strings.Builder
	fmt.Fprintf(&b, "pcftop — %s — %s\n", addr, now.UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, "epoch %d", m.epoch)
	if m.scheme != "" {
		fmt.Fprintf(&b, " (scheme %s)", m.scheme)
	}
	if m.breaker != "" {
		fmt.Fprintf(&b, "   breaker %s", m.breaker)
	}
	b.WriteString("\n")

	outcomes := map[string]int{}
	endpoints := map[string]int{}
	for _, r := range m.recent {
		outcomes[r.OutcomeOrOK()]++
		endpoints[r.Name]++
	}
	n := len(m.recent)
	rate := float64(n) / m.window.Seconds()
	fmt.Fprintf(&b, "requests %.1f/s over %s", rate, m.window)
	for _, o := range []string{"ok", "shed", "error"} {
		if c := outcomes[o]; c > 0 {
			fmt.Fprintf(&b, "   %s %d (%.0f%%)", o, c, 100*float64(c)/float64(n))
		}
	}
	b.WriteString("\n")
	if len(endpoints) > 0 {
		names := make([]string, 0, len(endpoints))
		for name := range endpoints {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("by endpoint:")
		for _, name := range names {
			fmt.Fprintf(&b, " %s %d", name, endpoints[name])
		}
		b.WriteString("\n")
	}
	if len(m.mlus) > 0 {
		last := m.mlus[len(m.mlus)-1]
		fmt.Fprintf(&b, "mlu %.3f  trend %s\n", last, sparkline(m.mlus))
	}
	if r := m.lastSolve; r != nil {
		fmt.Fprintf(&b, "last solve: %s in %v", r.OutcomeOrOK(), r.Dur.Round(time.Millisecond))
		if v := r.Field("lp_iterations"); v > 0 {
			fmt.Fprintf(&b, ", %.0f lp iters (p1 %.0f p2 %.0f dual %.0f, %.0f rows slack-started)", v,
				r.Field("phase1_iters"), r.Field("phase2_iters"), r.Field("dual_iters"), r.Field("slack_start"))
		}
		if nnz := r.Field("basis_nnz"); nnz > 0 {
			fmt.Fprintf(&b, ", basis %.0f nnz fill %.2f", nnz, r.Field("fill_ratio"))
			if rows := r.Field("rows"); rows > 0 {
				fmt.Fprintf(&b, " kernel %.0f/%.0f", r.Field("kernel_dim"), rows)
			}
			if v := r.Field("refactors"); v > 0 {
				fmt.Fprintf(&b, " refactors %.0f", v)
			}
			if v := r.Field("eta_len_max"); v > 0 {
				fmt.Fprintf(&b, " eta<=%.0f", v)
			}
		}
		b.WriteString("\n")
	}
	if r := m.lastPublish; r != nil {
		fmt.Fprintf(&b, "last publish: epoch %d", r.Epoch)
		if v := r.Field("value"); v > 0 {
			fmt.Fprintf(&b, ", value %.4f", v)
		}
		b.WriteString("\n")
	}
	if r := m.lastValidate; r != nil {
		model := r.Name
		if model == "" {
			model = "exact"
		}
		fmt.Fprintf(&b, "last validate: %s model=%s, %.0f scenarios", r.OutcomeOrOK(), model, r.Field("scenarios"))
		if v := r.Field("samples"); v > 0 {
			// The sampled model's coverage bound, the same (ε, δ)
			// statement the /v1/validate response carries.
			fmt.Fprintf(&b, ", %.0f samples: P(unvalidated) <= %.3g at %.4g%% conf",
				v, r.Field("epsilon"), 100*(1-r.Field("delta")))
		}
		if v := r.Field("dest_evals"); v > 0 {
			fmt.Fprintf(&b, ", %.1f%% of %.0f destination emissions replayed", 100*r.Field("dest_replays")/v, v)
		}
		if v := r.Field("fallbacks"); v > 0 {
			// Why scenarios went cold: a cold realization costs orders
			// of magnitude more than a corrected one.
			fmt.Fprintf(&b, ", %.0f cold (nobase %.0f singular %.0f residual %.0f)", v,
				r.Field("fallbacks_nobase"), r.Field("fallbacks_singular"), r.Field("fallbacks_residual"))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// tailBatch is the tail endpoint's response shape.
type tailBatch struct {
	Records []telemetry.Record `json:"records"`
	Cursor  uint64             `json:"cursor"`
}

// fetch pulls one tail batch from the daemon.
func fetch(client *http.Client, addr string, after uint64, wait time.Duration) (tailBatch, error) {
	var batch tailBatch
	url := fmt.Sprintf("%s/v1/telemetry/tail?after=%d&wait=%s&limit=1024", addr, after, wait)
	resp, err := client.Get(url)
	if err != nil {
		return batch, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return batch, fmt.Errorf("tail: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	err = json.NewDecoder(resp.Body).Decode(&batch)
	return batch, err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcftop: ")
	addr := flag.String("addr", "http://127.0.0.1:8080", "pcfd base URL")
	window := flag.Duration("window", 30*time.Second, "request-rate sliding window")
	interval := flag.Duration("interval", time.Second, "redraw cadence")
	once := flag.Bool("once", false, "render one snapshot of the backlog and exit (no TTY loop)")
	flag.Parse()

	client := &http.Client{Timeout: 2 * time.Minute}
	m := newModel(*window)

	if *once {
		var after uint64
		for {
			batch, err := fetch(client, *addr, after, 0)
			if err != nil {
				log.Fatal(err)
			}
			for _, r := range batch.Records {
				m.observe(r)
			}
			if len(batch.Records) == 0 {
				break
			}
			after = batch.Cursor
		}
		fmt.Print(m.render(*addr, time.Now()))
		return
	}

	var after uint64
	dirty := time.Now()
	for {
		batch, err := fetch(client, *addr, after, *interval)
		if err != nil {
			log.Printf("%v (retrying)", err)
			time.Sleep(*interval)
			continue
		}
		after = batch.Cursor
		for _, r := range batch.Records {
			m.observe(r)
		}
		if now := time.Now(); now.Sub(dirty) >= *interval {
			dirty = now
			// Clear and home, then the frame: a plain ANSI repaint keeps
			// pcftop dependency-free.
			fmt.Fprint(os.Stdout, "\033[2J\033[H"+m.render(*addr, now))
		}
	}
}
