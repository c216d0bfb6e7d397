package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent names the span that caused this one (0 for a root).
// An aggregated span stands for Calls calls whose durations were summed
// (Generator.Next is timed per call but recorded once per window).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	Count  int64  `json:"count,omitempty"`
}

// tracer keeps spans in memory for the whole run and writes them out
// once at the end, so recording costs no I/O while measuring. A nil
// *tracer records nothing: the untraced run passes nil.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its id (0 on a nil tracer).
func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// rel converts a wall time to nanoseconds since the tracer started.
func (t *tracer) rel(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// interval records a root or child span covering [start, end).
func (t *tracer) interval(op, parent int, name string, start, end time.Time, count int64) int {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Op: op, Name: name, Start: t.rel(start), End: t.rel(end), Count: count})
}

// end sets the end of a span recorded before it finished.
func (t *tracer) end(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.rel(at)
}

// write stores the spans and the run header as one JSON document.
func (t *tracer) write(path string, header any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	t.mu.Lock()
	doc := struct {
		Header any    `json:"header"`
		Spans  []span `json:"spans"`
	}{header, t.spans}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// timedGen wraps the generator handed to System.Advance and sums the
// wall time spent inside Next, so a window splits into generator time
// and simulator self time. The scheduler may pull a few records ahead of
// the ones it consumes; those count as generator work of the window that
// pulled them. While on is false, Next passes straight through, so
// traced and untraced windows can alternate on one scheduler.
type timedGen struct {
	g     trace.Generator
	on    bool
	ns    int64
	calls int64
}

func (t *timedGen) Next() trace.Record {
	if !t.on {
		return t.g.Next()
	}
	a := time.Now()
	r := t.g.Next()
	t.ns += time.Since(a).Nanoseconds()
	t.calls++
	return r
}

func (t *timedGen) Reset() { t.g.Reset() }

// take returns and clears the accumulated time and call count.
func (t *timedGen) take() (ns, calls int64) {
	ns, calls = t.ns, t.calls
	t.ns, t.calls = 0, 0
	return ns, calls
}
