// Package fleet turns single-node pcfd into a replicated serving
// tier with a plan-distribution control plane, on the stdlib HTTP
// stack and the serve package's checkpoint envelope as the wire
// format. Three roles:
//
//   - a planner (NewPlanner) validates and publishes epoch-stamped
//     envelopes over /v1/fleet/plan, grants monotone leases over
//     /v1/fleet/lease, and pushes fresh envelopes to replicas that
//     advertised a URL;
//   - serving replicas (NewReplica) pull — or accept pushes of —
//     envelopes, re-validate every plan locally before hot-swapping
//     (validation is never trusted across the wire; the registry's
//     PublishExternal refuses epoch regressions), and heartbeat the
//     planner for leases. A replica whose lease expires keeps serving
//     its last validated plan read-only and reports itself degraded
//     through /healthz;
//   - a stateless front end (NewFrontend) forwards whole replies:
//     it spreads realize/validate/optimal traffic across replicas
//     with active /healthz probing, ejection of dead or stale-epoch
//     backends, and failover retry of idempotent requests whose
//     reply did not arrive complete.
//
// The per-node guarantee of serve — no plan is visible that did not
// pass the full congestion-free validation sweep, and served epochs
// never regress — therefore holds fleet-wide: every path a plan can
// take into a replica's registry funnels through the same validating,
// monotone publish. DESIGN.md §14 has the architecture and the
// epoch-monotonicity argument; TestFleetChaosSoak is the executable
// spec.
package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"
)

// Typed fleet failures, selected on with errors.Is.
var (
	// ErrStaleLease reports a lease grant whose term does not advance
	// the holder's: a partitioned or restarted planner re-granting old
	// state must not roll a replica's view backwards.
	ErrStaleLease = errors.New("fleet: stale lease term refused")
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
	// PlanPath serves (GET, planner) and accepts (POST, replica)
	// epoch-stamped plan envelopes.
	PlanPath = "/v1/fleet/plan"
	// LeasePath grants leases to heartbeating replicas (POST, planner).
	LeasePath = "/v1/fleet/lease"
	// StatusPath reports the planner's fleet view (GET, planner).
	StatusPath = "/v1/fleet/status"
)

// defaultLeaseTTL is the lease lifetime when a config leaves it zero;
// heartbeats default to a third of the TTL so two consecutive
// heartbeat losses still renew in time.
const defaultLeaseTTL = 15 * time.Second

// writeError answers with status and the JSON body {"error": msg}, the
// shape every fleet role and the serving core use for a failure.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
