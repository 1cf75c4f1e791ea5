package telemetry

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// Query selects and aggregates stored records. Zero-valued dimension
// filters match everything; Since is inclusive, Until exclusive.
type Query struct {
	// Dimension filters. Outcome matches the normalized outcome (an
	// empty stored outcome is "ok").
	Kind    Kind   `json:"kind,omitempty"`
	Source  string `json:"src,omitempty"`
	Name    string `json:"name,omitempty"`
	Scheme  string `json:"scheme,omitempty"`
	Outcome string `json:"outcome,omitempty"`

	// Time window (zero = unbounded).
	Since time.Time `json:"since,omitempty"`
	Until time.Time `json:"until,omitempty"`

	// Bucket slices the window into fixed-width time buckets (0 = one
	// bucket for the whole window).
	Bucket time.Duration `json:"bucket,omitempty"`

	// Metric selects the aggregated value: "" counts records,
	// "dur_ms" aggregates Record.Dur in milliseconds, anything else
	// aggregates that Fields key (records lacking it are skipped).
	Metric string `json:"metric,omitempty"`

	// GroupBy splits each time bucket by a dimension: "kind",
	// "src", "name", "scheme", "outcome" or "epoch".
	GroupBy string `json:"group_by,omitempty"`
}

// ErrBadQuery reports an unusable query parameter.
var ErrBadQuery = errors.New("telemetry: bad query")

// Bucket is one aggregated cell of a query result. Percentiles are
// nearest-rank over the exact value set, so equal inputs always
// produce equal outputs — aggregation is deterministic by
// construction.
type Bucket struct {
	// Start is the bucket's start time (zero when the query had no
	// bucket width).
	Start time.Time `json:"start,omitempty"`
	// Group is the GroupBy dimension's value ("" without grouping).
	Group string  `json:"group,omitempty"`
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// match reports whether a record passes the query's filters.
func (q Query) match(r Record) bool {
	if q.Kind != "" && r.Kind != q.Kind {
		return false
	}
	if q.Source != "" && r.Source != q.Source {
		return false
	}
	if q.Name != "" && r.Name != q.Name {
		return false
	}
	if q.Scheme != "" && r.Scheme != q.Scheme {
		return false
	}
	if q.Outcome != "" && r.OutcomeOrOK() != q.Outcome {
		return false
	}
	if !q.Since.IsZero() && r.Time.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && !r.Time.Before(q.Until) {
		return false
	}
	return true
}

// value extracts the metric value from a matched record; ok is false
// when the record lacks the metric and must be skipped.
func (q Query) value(r Record) (float64, bool) {
	switch q.Metric {
	case "":
		return 1, true
	case "dur_ms":
		return float64(r.Dur) / float64(time.Millisecond), true
	default:
		v, ok := r.Fields[q.Metric]
		return v, ok && !math.IsNaN(v)
	}
}

// group extracts the GroupBy dimension value from a record.
func (q Query) group(r Record) (string, error) {
	switch q.GroupBy {
	case "":
		return "", nil
	case "kind":
		return string(r.Kind), nil
	case "src", "source":
		return r.Source, nil
	case "name":
		return r.Name, nil
	case "scheme":
		return r.Scheme, nil
	case "outcome":
		return r.OutcomeOrOK(), nil
	case "epoch":
		return strconv.FormatUint(r.Epoch, 10), nil
	default:
		return "", fmt.Errorf("%w: unknown group_by %q", ErrBadQuery, q.GroupBy)
	}
}

// bucketKey identifies one (time bucket, group) accumulation cell.
type bucketKey struct {
	start int64 // UnixNano of the bucket start; 0 when unbucketed
	group string
}

// Query aggregates the matching records into time-bucketed cells with
// count/sum/min/max/p50/p95/p99. Records are visited in sequence
// order and percentiles are nearest-rank over sorted values, so the
// same stored records always produce the same result.
func (s *Store) Query(q Query) ([]Bucket, error) {
	if _, err := q.group(Record{}); err != nil {
		return nil, err
	}
	values := map[bucketKey][]float64{}
	s.mu.Lock()
	scanErr := s.scanLocked(0, func(r Record) bool {
		if !q.match(r) {
			return true
		}
		v, ok := q.value(r)
		if !ok {
			return true
		}
		g, _ := q.group(r) // validated above
		key := bucketKey{group: g}
		if q.Bucket > 0 {
			key.start = r.Time.Truncate(q.Bucket).UnixNano()
		}
		values[key] = append(values[key], v)
		return true
	})
	s.mu.Unlock()
	if scanErr != nil {
		return nil, scanErr
	}

	keys := make([]bucketKey, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].start != keys[j].start {
			return keys[i].start < keys[j].start
		}
		return keys[i].group < keys[j].group
	})

	out := make([]Bucket, 0, len(keys))
	for _, k := range keys {
		vs := values[k]
		b := Bucket{Group: k.group, Count: len(vs)}
		if k.start != 0 {
			b.Start = time.Unix(0, k.start).UTC()
		}
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		b.Min = sorted[0]
		b.Max = sorted[len(sorted)-1]
		for _, v := range sorted {
			b.Sum += v
		}
		b.P50 = nearestRank(sorted, 50)
		b.P95 = nearestRank(sorted, 95)
		b.P99 = nearestRank(sorted, 99)
		out = append(out, b)
	}
	return out, nil
}

// nearestRank returns the p-th percentile of sorted values by the
// nearest-rank definition: the value at index ceil(p/100·n)−1. It is
// exact and deterministic — no interpolation.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
