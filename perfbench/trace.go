package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// layer's public function. Calls counts the calls a span covers: probes
// far below the clock's resolution are timed in batches, one span per
// batch. Level orders the layers of one request (client 0, router 1,
// replica 2) so nest can link a span only to an outer layer.
type span struct {
	Name   string `json:"name"`
	Input  int64  `json:"input"` // replayed input the span belongs to, -1 if unknown
	Parent int    `json:"parent"`
	Level  int    `json:"level"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int    `json:"calls"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0     time.Time
	paused atomic.Bool // while set, wrapped handlers record nothing
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name string, level int, input int64, start time.Time, dur time.Duration, calls int) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, Input: input, Parent: -1, Level: level,
		Start: int64(start.Sub(r.t0)), Dur: int64(dur), Calls: calls,
	})
	r.mu.Unlock()
}

// wrap returns a handler wrapper that records a span around every
// request the wrapped handler serves. Spans recorded inside a server
// carry no input id; nest links them to the client span that encloses
// them in time, which is exact while one request (and its scattered
// sub-requests) is in flight at a time.
func (r *recorder) wrap(name string, level int) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			start := time.Now()
			h.ServeHTTP(w, req)
			if !r.paused.Load() {
				r.add(name, level, -1, start, time.Since(start), 1)
			}
		})
	}
}

// nest sets each span's parent to the innermost span of an outer level
// that encloses it in time, and copies the parent's input id.
func (r *recorder) nest() {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make([]int, len(r.spans))
	for i := range idx {
		idx[i] = i
	}
	sp := r.spans
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := sp[idx[a]], sp[idx[b]]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.Level < y.Level
	})
	var open []int
	for _, i := range idx {
		s := &sp[i]
		for len(open) > 0 && sp[open[len(open)-1]].Start+sp[open[len(open)-1]].Dur < s.Start {
			open = open[:len(open)-1]
		}
		for j := len(open) - 1; j >= 0; j-- {
			p := sp[open[j]]
			if p.Level < s.Level && p.Start+p.Dur >= s.Start+s.Dur {
				s.Parent = open[j]
				if s.Input < 0 {
					s.Input = p.Input
				}
				break
			}
		}
		open = append(open, i)
	}
}

// durations returns the per-call durations of the named spans in unit.
func (r *recorder) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur)/float64(s.Calls)/float64(unit))
		}
	}
	return out
}

// byInput returns the named spans' durations in unit, keyed by input id.
func (r *recorder) byInput(name string, unit time.Duration) map[int64]float64 {
	out := make(map[int64]float64)
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Input] = float64(s.Dur) / float64(unit)
		}
	}
	return out
}

// selfTimes returns, for each named span, its duration minus the part its
// child spans cover, in unit. Children of one span may overlap (scattered
// sub-requests), so the covered part is the union of their intervals.
func (r *recorder) selfTimes(name string, unit time.Duration) []float64 {
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.Name != name {
			continue
		}
		c := kids[i]
		sort.Slice(c, func(a, b int) bool { return c[a].Start < c[b].Start })
		var covered, end int64
		for _, k := range c {
			lo, hi := k.Start, k.Start+k.Dur
			if lo < end {
				lo = end
			}
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out = append(out, float64(s.Dur-covered)/float64(unit))
	}
	return out
}

func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// merge appends other's spans, re-basing their start times and parents.
func (r *recorder) merge(other *recorder) {
	shift := int64(other.t0.Sub(r.t0))
	base := len(r.spans)
	for _, s := range other.spans {
		s.Start += shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}
