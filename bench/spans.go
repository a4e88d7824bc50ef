package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span ids inside one session trace. The first four are fixed so that
// teacher calls and stream frames, which end before their parent span
// is recorded, can name it; every other span gets the next free id.
const (
	spanSession = 1 // the whole session, start to verified result
	spanResolve = 2 // artifact bundle resolution (stream: POST /v1/sessions)
	spanLearn   = 3 // core.Session.Learn (stream: POST …/stream up to the done frame)
	spanVerify  = 4 // learned and truth results built and compared (stream: GET …/tree)
	firstFreeID = 10
)

// span is one NDJSON line of the span file.
type span struct {
	Trace    int     `json:"trace"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Scenario string  `json:"scenario,omitempty"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// tracer keeps the spans of traced sessions in memory until the run
// writes them out.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// session opens the trace of one session; a nil tracer traces nothing.
func (t *tracer) session(scenario string) *sessionTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.traces++
	id := t.traces
	t.mu.Unlock()
	return &sessionTrace{t: t, trace: id, scenario: scenario, next: firstFreeID}
}

// write stores every span as NDJSON at path, ordered by trace and id.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Trace != spans[j].Trace {
			return spans[i].Trace < spans[j].Trace
		}
		return spans[i].ID < spans[j].ID
	})
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// sessionTrace collects one session's spans; every method is a no-op
// on a nil receiver, so untraced sessions pay one nil check per span.
type sessionTrace struct {
	t        *tracer
	trace    int
	scenario string

	mu    sync.Mutex
	spans []span
	next  int
}

// fixed records the span with one of the fixed ids.
func (s *sessionTrace) fixed(id int, name string, start, end time.Time) {
	if s == nil {
		return
	}
	parent := spanSession
	if id == spanSession {
		parent = 0
	}
	s.add(id, parent, name, start, end)
}

// span records a child of parent named prefix+name under the next
// free id; the name is joined only when the session is traced.
func (s *sessionTrace) span(prefix, name string, parent int, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	id := s.next
	s.next++
	s.mu.Unlock()
	s.add(id, parent, prefix+name, start, end)
}

func (s *sessionTrace) add(id, parent int, name string, start, end time.Time) {
	us := func(t time.Time) float64 { return float64(t.Sub(s.t.origin)) / float64(time.Microsecond) }
	s.mu.Lock()
	s.spans = append(s.spans, span{
		Trace: s.trace, ID: id, Parent: parent, Name: name, Scenario: s.scenario,
		StartUS: us(start), EndUS: us(end),
	})
	s.mu.Unlock()
}

// finish hands the session's spans to the tracer.
func (s *sessionTrace) finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	spans := s.spans
	s.spans = nil
	s.mu.Unlock()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, spans...)
	s.t.mu.Unlock()
}
