package main

import (
	"strings"
	"testing"
	"time"

	"pcf/internal/telemetry"
)

func at(sec int) time.Time {
	return time.Date(2026, 8, 8, 12, 0, sec, 0, time.UTC)
}

// TestModelRender drives the pure view state with a fixed record
// stream and checks the frame: rates, outcome mix, epoch, breaker,
// MLU trend and last solve/publish all derive from records alone.
func TestModelRender(t *testing.T) {
	m := newModel(30 * time.Second)
	m.observe(telemetry.Record{Time: at(1), Kind: telemetry.KindSolve, Scheme: "PCF-CLS",
		Dur: 1200 * time.Millisecond, Fields: map[string]float64{"lp_iterations": 42,
			"phase2_iters": 30, "dual_iters": 12, "slack_start": 5424, "basis_nnz": 7580, "fill_ratio": 1.118, "kernel_dim": 688, "rows": 5424, "refactors": 66, "eta_len_max": 316}})
	m.observe(telemetry.Record{Time: at(2), Kind: telemetry.KindPublish, Scheme: "PCF-CLS",
		Epoch: 7, Fields: map[string]float64{"value": 0.7227}})
	for i := 0; i < 8; i++ {
		m.observe(telemetry.Record{Time: at(3 + i), Kind: telemetry.KindRequest, Name: "realize",
			Epoch: 7, Fields: map[string]float64{"mlu": 0.6 + float64(i)/100}})
	}
	m.observe(telemetry.Record{Time: at(12), Kind: telemetry.KindRequest, Name: "solve", Outcome: "shed"})
	m.observe(telemetry.Record{Time: at(13), Kind: telemetry.KindBreaker, Scheme: "PCF-CLS",
		Fields: map[string]float64{"open": 1, "trips": 1}})
	m.observe(telemetry.Record{Time: at(14), Kind: telemetry.KindValidate, Name: "sampled", Epoch: 7,
		Fields: map[string]float64{"scenarios": 63, "samples": 40, "epsilon": 0.0123, "delta": 0.05,
			"dest_evals": 400, "dest_replays": 250, "fallbacks": 13, "fallbacks_singular": 12, "fallbacks_residual": 1}})

	frame := m.render("http://test", at(20))
	for _, want := range []string{
		"epoch 7 (scheme PCF-CLS)",
		"breaker PCF-CLS open",
		"requests 0.3/s over 30s",
		"ok 8 (89%)",
		"shed 1 (11%)",
		"by endpoint: realize 8 solve 1",
		"mlu 0.670",
		"last solve: ok in 1.2s, 42 lp iters (p1 0 p2 30 dual 12, 5424 rows slack-started), basis 7580 nnz fill 1.12 kernel 688/5424 refactors 66 eta<=316",
		"last publish: epoch 7, value 0.7227",
		"last validate: ok model=sampled, 63 scenarios, 40 samples: P(unvalidated) <= 0.0123 at 95% conf" +
			", 62.5% of 400 destination emissions replayed, 13 cold (nobase 0 singular 12 residual 1)",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}

	// The same records render the same frame: the view is a pure
	// function of the stream.
	m2 := newModel(30 * time.Second)
	for _, r := range append([]telemetry.Record(nil), m.recent...) {
		m2.observe(r)
	}

	// A breaker that closes reads closed.
	m.observe(telemetry.Record{Time: at(15), Kind: telemetry.KindBreaker, Scheme: "PCF-CLS",
		Fields: map[string]float64{"open": 0, "trips": 1}})
	if frame := m.render("http://test", at(20)); !strings.Contains(frame, "breaker PCF-CLS closed") {
		t.Errorf("frame missing %q after the close record:\n%s", "breaker PCF-CLS closed", frame)
	}

	// Records older than the window fall out of the rate but keep the
	// high-water epoch.
	frame = m.render("http://test", at(50))
	if !strings.Contains(frame, "requests 0.0/s") {
		t.Errorf("stale requests still counted:\n%s", frame)
	}
	if !strings.Contains(frame, "epoch 7") {
		t.Errorf("epoch forgotten with the window:\n%s", frame)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil); got != "" {
		t.Errorf("sparkline(nil) = %q, want empty", got)
	}
	if got := sparkline([]float64{1, 1, 1}); got != "▁▁▁" {
		t.Errorf("flat sparkline = %q, want all-low", got)
	}
	got := sparkline([]float64{0, 0.5, 1})
	if !strings.HasPrefix(got, "▁") || !strings.HasSuffix(got, "█") {
		t.Errorf("ramp sparkline = %q, want low..high", got)
	}
}
