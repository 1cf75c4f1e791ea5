package serve

import (
	"context"
	"errors"
	"fmt"
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

// handleTelemetryQuery builds a telemetry.Query from URL parameters —
// kind, src, name, scheme, outcome, since/until (RFC 3339), bucket (Go
// duration), metric, group_by — and runs it.
func (s *Server) handleTelemetryQuery(c *call) (any, error) {
	q := telemetry.Query{
		Kind:    telemetry.Kind(c.query("kind")),
		Source:  c.query("src"),
		Name:    c.query("name"),
		Scheme:  c.query("scheme"),
		Outcome: c.query("outcome"),
		Metric:  c.query("metric"),
		GroupBy: c.query("group_by"),
	}
	bounds := [...]*time.Time{&q.Since, &q.Until}
	for i, key := range [...]string{"since", "until"} {
		if raw := c.query(key); raw != "" {
			var err error
			if *bounds[i], err = time.Parse(time.RFC3339, raw); err != nil {
				return nil, badRequest{fmt.Errorf("bad %s (want RFC 3339): %w", key, err)}
			}
		}
	}
	if raw := c.query("bucket"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			return nil, badRequest{errors.New("bad bucket (want a positive Go duration)")}
		}
		q.Bucket = d
	}
	buckets, err := s.tel.Query(q)
	if errors.Is(err, telemetry.ErrBadQuery) {
		return nil, badRequest{err}
	}
	if err != nil {
		return nil, err
	}
	return map[string]any{"buckets": buckets}, nil
}

// handleTelemetryTail answers the records after ?after= (at most
// ?limit=), parking up to ?wait= for the first one.
func (s *Server) handleTelemetryTail(c *call) (any, error) {
	var after uint64
	if raw := c.query("after"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return nil, badRequest{errors.New("bad after (want an unsigned cursor)")}
		}
		after = n
	}
	limit := 256
	if raw := c.query("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return nil, badRequest{errors.New("bad limit (want a positive integer)")}
		}
		limit = n
	}
	wait := 25 * time.Second
	if raw := c.query("wait"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			return nil, badRequest{errors.New("bad wait (want a non-negative Go duration)")}
		}
		wait = min(d, maxTailWait)
	}
	ctx, cancel := context.WithTimeout(c.context(), wait)
	defer cancel()
	recs, cursor, err := s.tel.Tail(ctx, after, limit)
	if err != nil {
		return nil, err
	}
	if recs == nil {
		recs = []telemetry.Record{}
	}
	return map[string]any{"records": recs, "cursor": cursor}, nil
}
