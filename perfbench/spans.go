package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program,
// recorded around the public function from the benchmark's own code.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Job    int    `json:"job"`      // job sequence number; -1 outside any job
	Start  int64  `json:"start_ns"` // nanoseconds since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced code paths can share the same calls.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(name string, parent int64, job int) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Job: job, Start: now, End: -1})
	return id
}

// End closes the span with the given ID.
func (r *Recorder) End(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records a span whose bounds were observed elsewhere (the daemon's
// job timestamps).
func (r *Recorder) Add(name string, parent int64, job int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: int64(len(r.spans) + 1), Parent: parent, Name: name, Job: job,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes one JSON object per span to path, creating its
// directory.
func (r *Recorder) WriteJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that its children cover. Children are clipped
// to the parent's interval and merged first, so overlapping children
// (concurrent calls, or synthesized server-side intervals) are not
// subtracted twice. Unclosed spans are an error.
func selfTimes(spans []Span) (map[string]time.Duration, error) {
	type interval struct{ lo, hi int64 }
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) is not closed", s.ID, s.Name)
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		var iv []interval
		for _, c := range children[s.ID] {
			lo, hi := max(c.lo, s.Start), min(c.hi, s.End)
			if hi > lo {
				iv = append(iv, interval{lo, hi})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, c := range iv {
			if c.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = c.lo, c.hi
			} else if c.hi > curHi {
				curHi = c.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out, nil
}
