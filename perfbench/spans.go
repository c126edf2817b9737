package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, which is how untraced reps run.
type recorder struct {
	mu    sync.Mutex
	next  int
	spans []span
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	r *recorder
	s span
}

// start opens a span named name under parent (0 for a root) in rep run.
func (r *recorder) start(run int, parent *openSpan, name string) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &openSpan{r: r, s: span{Run: run, ID: id, Parent: parent.id(), Name: name, Start: time.Now().UnixNano()}}
}

func (o *openSpan) id() int {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and keeps it.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Now().UnixNano()
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// durations returns the durations in nanoseconds of every span named name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores every span as one JSON array.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
