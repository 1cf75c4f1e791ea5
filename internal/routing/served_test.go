package routing_test

// Tests of the engine as internal/serve uses it. They live here, in an
// external test package, because they need both the serving layer and
// this package's unexported build counter and corrector cache
// (export_test.go).

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"pcf/internal/routing"
	"pcf/internal/serve"
)

// TestPublishValidatesServedSweep: however an epoch arrives — Publish,
// PublishExternal, Recover — the registry builds exactly one engine for
// it, and the engine it publishes is the one the recorded validation
// statistics came from.
func TestPublishValidatesServedSweep(t *testing.T) {
	plan := routing.Fig5CLSPlan(t)
	in := plan.Instance
	ctx := context.Background()
	store, err := serve.NewStore(t.TempDir(), in)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []struct {
		how     string
		epoch   uint64
		install func(*serve.Registry) (*serve.Published, error)
	}{
		{"Publish", 1, func(r *serve.Registry) (*serve.Published, error) { return r.Publish(ctx, plan) }},
		{"PublishExternal", 7, func(r *serve.Registry) (*serve.Published, error) { return r.PublishExternal(ctx, 7, plan) }},
		// A fresh registry over the same store: the restart path.
		{"Recover", 7, func(*serve.Registry) (*serve.Published, error) {
			return serve.NewRegistry(store, t.Logf).Recover(ctx, in)
		}},
	}
	reg := serve.NewRegistry(store, t.Logf)
	for _, a := range arrivals {
		before := routing.SweepBuilds()
		pub, err := a.install(reg)
		if err != nil {
			t.Fatalf("%s: %v", a.how, err)
		}
		if got := routing.SweepBuilds() - before; got != 1 {
			t.Fatalf("%s built %d engines, want exactly 1", a.how, got)
		}
		if pub.Epoch != a.epoch {
			t.Fatalf("%s installed epoch %d, want %d", a.how, pub.Epoch, a.epoch)
		}
		// One build, and validation ran through an engine (it reports
		// low-rank hits and that engine's build time): the only engine
		// there is must be both the validated and the published one.
		if pub.Validated.SMWHits == 0 || pub.Validated.Scenarios != in.Failures.NumScenariosExact() {
			t.Fatalf("%s: validation did not sweep the designed set through an engine: %+v", a.how, pub.Validated)
		}
		if pub.Validated.BaseFactorTime != pub.Sweep.BaseFactorTime() {
			t.Fatalf("%s: validated an engine built in %v, published one built in %v",
				a.how, pub.Validated.BaseFactorTime, pub.Sweep.BaseFactorTime())
		}
		// Validation already paid for the designed set's correctors;
		// serving it again builds none.
		warm := pub.Sweep.CachedCorrectors()
		if warm == 0 {
			t.Fatalf("%s: published engine's corrector cache is cold", a.how)
		}
		if _, err := pub.Sweep.ValidateStats(ctx); err != nil {
			t.Fatal(err)
		}
		if got := pub.Sweep.CachedCorrectors(); got != warm {
			t.Fatalf("%s: corrector cache went from %d to %d entries on a re-sweep", a.how, warm, got)
		}
	}
}

// TestExactValidateLeavesCacheBounded: /v1/validate sweeps through the
// published engine and builds none, under either model. The sampled
// model's beyond-budget draws, whose signatures are their own, run on a
// fork that keeps its correctors apart, so the published engine's
// corrector cache stays at the designed set's signatures.
func TestExactValidateLeavesCacheBounded(t *testing.T) {
	plan := routing.Fig5CLSPlan(t)
	srv, err := serve.NewServer(serve.Config{Instance: plan.Instance, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pub, err := srv.Registry().Publish(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	designed := pub.Sweep.CachedCorrectors()
	if designed == 0 {
		t.Fatal("publication cached no corrector")
	}
	get := func(query string) {
		t.Helper()
		before := routing.SweepBuilds()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/validate?"+query, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET /v1/validate?%s: status %d: %s", query, w.Code, w.Body)
		}
		if got := routing.SweepBuilds() - before; got != 0 {
			t.Fatalf("GET /v1/validate?%s built %d engines, want 0", query, got)
		}
		if got := pub.Sweep.CachedCorrectors(); got != designed {
			t.Fatalf("GET /v1/validate?%s moved the published corrector cache from %d to %d", query, designed, got)
		}
	}
	for seed := 1; seed <= 4; seed++ {
		get("model=exact")
		get(fmt.Sprintf("model=sampled&p=0.05&samples=40&seed=%d", seed))
		get(fmt.Sprintf("model=sampled&p=0.3&samples=200&kcap=6&seed=%d", seed))
	}
	if cur, err := srv.Registry().Current(); err != nil || cur.Sweep != pub.Sweep {
		t.Fatalf("the published engine changed under validation traffic: %v", err)
	}
}

// TestRealizeLeavesCacheBounded: POST /v1/realize runs any client-chosen
// link set through the published engine. Ten times the designed count
// of distinct beyond-budget scenarios leave its corrector cache at or
// under that count, and each answer still matches cold Realize to 1e-9.
func TestRealizeLeavesCacheBounded(t *testing.T) {
	plan := routing.SprintCLSPlan(t)
	pub, err := serve.NewRegistry(nil, t.Logf).Publish(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	bound := plan.Instance.Failures.NumScenariosExact()
	scs := routing.DistinctBeyondBudget(plan, 10*bound)
	realized := 0
	for _, sc := range scs {
		want, werr := routing.Realize(plan, sc)
		got, gerr := pub.Sweep.Realize(sc)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("under %v: cold err %v, engine err %v", sc, werr, gerr)
		}
		if werr == nil {
			realized++
			for a, w := range want.ArcLoad {
				if d := math.Abs(got.ArcLoad[a] - w); d > 1e-9*math.Max(1, math.Abs(w)) {
					t.Fatalf("under %v: ArcLoad[%d] = %.12g, cold has %.12g", sc, a, got.ArcLoad[a], w)
				}
			}
		}
	}
	if len(scs) < 10*bound || realized < bound {
		t.Fatalf("served %d beyond-budget scenarios (%d realizable), want %d", len(scs), realized, 10*bound)
	}
	if got := pub.Sweep.CachedCorrectors(); got > bound {
		t.Fatalf("corrector cache holds %d entries after %d beyond-budget scenarios, bound %d", got, len(scs), bound)
	}
}
