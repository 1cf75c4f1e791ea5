package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's exported entry point. Spans of one operation share Op;
// Parent is the ID of the span that caused this one (0 for an
// operation's root). Times are nanoseconds since the trace began.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op_id"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run
// ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (1-based, so 0 can mean "no
// parent").
func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes a span, attaching the counts taken at the same boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Counts = counts
}

// ms is a closed span's duration in milliseconds.
func (t *tracer) ms(id int) float64 {
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e6
}

// call records one span around f.
func (t *tracer) call(name string, parent, op int, f func() map[string]float64) int {
	id := t.begin(name, parent, op)
	t.end(id, f())
	return id
}

// selfTimes returns, per span ID, the span's duration minus the part
// of its interval that its child spans cover. Overlapping children
// (siblings running concurrently) are counted once, and a child
// reaching outside its parent only counts for the part inside.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerTimes sums duration and self time by span name, in
// milliseconds.
func layerTimes(spans []span) (total, self map[string]float64) {
	total, self = map[string]float64{}, map[string]float64{}
	st := selfTimes(spans)
	for _, s := range spans {
		total[s.Name] += float64(s.End-s.Start) / 1e6
		self[s.Name] += float64(st[s.ID]) / 1e6
	}
	return total, self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
