package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root of its query
	Query  int           `json:"query"`
	Name   string        `json:"name"` // "<layer>.<operation>"
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layerOf is the package a span name belongs to.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// tracer keeps spans in memory until the run ends. The traced pass is
// serial, so a tracer is used from one goroutine only. A nil tracer records
// nothing, so the same code runs traced and untraced.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (ids start at 1).
func (t *tracer) start(name string, query, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Query: query, Name: name,
		Start: time.Since(t.epoch),
	})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.End = time.Since(t.epoch)
	return s.dur()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, query, parent int, fn func()) time.Duration {
	id := t.start(name, query, parent)
	fn()
	return t.end(id)
}

// writeFile dumps every span as JSON.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover. Children are assumed not to
// overlap each other (the traced pass is serial) and are clipped to the
// parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur()
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			self[p.ID] -= hi - lo
		}
	}
	return self
}

// coverage is, per query, Σ durations of the direct children of the span
// named parent over the duration of the span named whole; the median over
// queries is returned. The traced pass replays a monolithic call (whole)
// layer by layer under a replay span (parent); a coverage near 1 says the
// layers account for the call. The median keeps one query that hit a cold
// pool or a GC pause from deciding the figure.
func coverage(spans []span, parent, whole string) float64 {
	parents := make(map[int]bool)
	wholeBy := make(map[int]time.Duration)
	childBy := make(map[int]time.Duration)
	for _, s := range spans {
		switch s.Name {
		case parent:
			parents[s.ID] = true
		case whole:
			wholeBy[s.Query] += s.dur()
		}
	}
	for _, s := range spans {
		if parents[s.Parent] {
			childBy[s.Query] += s.dur()
		}
	}
	var ratios []float64
	for q, w := range wholeBy {
		if w > 0 {
			ratios = append(ratios, float64(childBy[q])/float64(w))
		}
	}
	return median(ratios)
}

// spanCost measures what recording one span costs, by recording many.
func spanCost() time.Duration {
	const n = 10000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("calibrate", 0, 0))
	}
	return time.Since(start) / n
}

// sumByName totals span durations per name, and counts them.
func sumByName(spans []span) (sum map[string]time.Duration, count map[string]int) {
	sum = make(map[string]time.Duration)
	count = make(map[string]int)
	for _, s := range spans {
		sum[s.Name] += s.dur()
		count[s.Name]++
	}
	return sum, count
}
