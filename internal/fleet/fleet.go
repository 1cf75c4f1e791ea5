// Package fleet turns single-node pcfd into a replicated serving
// tier with a plan-distribution control plane, on the stdlib HTTP
// stack and the serve package's checkpoint envelope as the wire
// format. Three roles:
//
//   - a planner (NewPlanner) validates and publishes epoch-stamped
//     envelopes over /v1/fleet/plan, renews the lease of every replica
//     that syncs there, and pushes a wake to replicas that advertised
//     a URL;
//   - serving replicas (NewReplica) pull envelopes from their planner
//     — a push only wakes the pull — and re-validate every plan
//     locally before hot-swapping (validation is never trusted across
//     the wire; the registry's PublishExternal refuses epoch
//     regressions). A replica's sync is one conditional fetch that
//     names it; every answer carries the lease TTL and so renews its
//     lease. A replica whose lease expires keeps serving its last
//     validated plan read-only and reports itself degraded through
//     /healthz;
//   - a stateless front end (NewFrontend) forwards whole replies:
//     it spreads realize/validate/optimal traffic across replicas
//     with active /healthz probing, ejection of dead or stale-epoch
//     backends, and failover retry of idempotent requests whose
//     reply did not arrive complete. It does not forward the fleet
//     control plane (/v1/fleet/...).
//
// The per-node guarantee of serve — no plan is visible that did not
// pass the full congestion-free validation sweep, and served epochs
// never regress — therefore holds fleet-wide: the one path a plan
// takes into a replica's registry is the replica's own fetch from its
// planner, through the same validating, monotone publish, so a
// replica's epochs are its planner's. DESIGN.md §14 has the
// architecture and the epoch-monotonicity argument; TestFleetChaosSoak
// is the executable spec.
package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"
)

// Typed fleet failures, selected on with errors.Is.
var (
	// ErrNoBackend reports that the front end has no routable backend
	// for a request.
	ErrNoBackend = errors.New("fleet: no routable backend")
	// ErrReplicaReadOnly reports a plan-mutating request (solve)
	// reaching a serving replica; plans enter replicas only through
	// the planner's distribution path.
	ErrReplicaReadOnly = errors.New("fleet: replica serves plans read-only; solve on the planner")
)

// Wire paths of the fleet control plane.
const (
	// PlanPath serves epoch-stamped plan envelopes (GET, planner); a
	// GET that names a replica is its sync round and renews its lease.
	// A POST to a replica is a push: it carries no body and wakes the
	// replica's sync loop (202).
	PlanPath = "/v1/fleet/plan"
	// StatusPath reports the planner's fleet view (GET, planner).
	StatusPath = "/v1/fleet/status"
)

// maxBody bounds a body a fleet role reads whole: a request the front
// end keeps for replay, a reply it reads before answering, and a plan
// envelope a replica pulls.
const maxBody = 64 << 20

// DefaultLeaseTTL is the lease lifetime when a config leaves it zero,
// and what a replica's default cadence assumes until its first grant.
const DefaultLeaseTTL = 15 * time.Second

// writeError answers with status and the JSON body {"error": msg}, the
// shape every fleet role and the serving core use for a failure.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
