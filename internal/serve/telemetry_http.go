package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"pcf/internal/telemetry"
)

// The telemetry HTTP surface: GET /v1/telemetry/query runs one
// aggregation over the server's record store, GET /v1/telemetry/tail
// long-polls for new records. Both serve pcftop and any operator
// tooling; they are the daemon's only statistics surface.

// maxTailWait caps how long one tail request may park before answering
// with an empty batch; clients just poll again with the same cursor.
const maxTailWait = 55 * time.Second

func badQuery(w http.ResponseWriter, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	writeJSON(w, map[string]any{"error": msg})
}

// parseQuery builds a telemetry.Query from URL parameters: kind, src,
// name, scheme, outcome, since/until (RFC 3339), bucket (Go duration),
// metric, group_by.
func parseQuery(r *http.Request) (telemetry.Query, string) {
	v := r.URL.Query()
	q := telemetry.Query{
		Kind:    telemetry.Kind(v.Get("kind")),
		Source:  v.Get("src"),
		Name:    v.Get("name"),
		Scheme:  v.Get("scheme"),
		Outcome: v.Get("outcome"),
		Metric:  v.Get("metric"),
		GroupBy: v.Get("group_by"),
	}
	if raw := v.Get("since"); raw != "" {
		ts, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			return q, "bad since (want RFC 3339): " + err.Error()
		}
		q.Since = ts
	}
	if raw := v.Get("until"); raw != "" {
		ts, err := time.Parse(time.RFC3339, raw)
		if err != nil {
			return q, "bad until (want RFC 3339): " + err.Error()
		}
		q.Until = ts
	}
	if raw := v.Get("bucket"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			return q, "bad bucket (want a positive Go duration)"
		}
		q.Bucket = d
	}
	return q, ""
}

func (s *Server) handleTelemetryQuery(w http.ResponseWriter, r *http.Request) {
	tr := s.track("telemetry_query")
	defer tr.done(nil)
	q, msg := parseQuery(r)
	if msg != "" {
		tr.rec.Outcome = "error"
		badQuery(w, msg)
		return
	}
	buckets, err := s.tel.Query(q)
	if err != nil {
		tr.rec.Outcome = "error"
		if errors.Is(err, telemetry.ErrBadQuery) {
			badQuery(w, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		writeJSON(w, map[string]any{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]any{"buckets": buckets})
}

func (s *Server) handleTelemetryTail(w http.ResponseWriter, r *http.Request) {
	// Tail requests deliberately do not emit request records: a parked
	// tail producing a record would wake itself and every other tail.
	v := r.URL.Query()
	var after uint64
	if raw := v.Get("after"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			badQuery(w, "bad after (want an unsigned cursor)")
			return
		}
		after = n
	}
	limit := 256
	if raw := v.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			badQuery(w, "bad limit (want a positive integer)")
			return
		}
		limit = n
	}
	wait := 25 * time.Second
	if raw := v.Get("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			badQuery(w, "bad wait (want a non-negative Go duration)")
			return
		}
		wait = min(d, maxTailWait)
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	recs, cursor, err := s.tel.Tail(ctx, after, limit)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSON(w, map[string]any{"error": err.Error()})
		return
	}
	if recs == nil {
		recs = []telemetry.Record{}
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]any{"records": recs, "cursor": cursor})
}
