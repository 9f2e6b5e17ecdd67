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

// tracer records spans in memory around the benchmark's calls into each
// layer's exported functions; they are written out as JSONL when the run
// ends. A nil *tracer records nothing, so untraced code paths call it
// unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Trace groups the spans of one session;
// Parent is the ID of the span that caused this one (0 = root).
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span.
type span struct {
	t      *tracer
	id     int64
	parent int64
	trace  uint64
	name   string
	start  time.Time
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// begin opens a span named name in trace, caused by parent (nil = root).
func (t *tracer) begin(name string, trace uint64, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{t: t, trace: trace, name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{}) // reserve the ID; filled by end
	s.id = int64(len(t.spans))
	t.mu.Unlock()
	return s
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	t := s.t
	rec := spanRec{ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name,
		Start: s.start.Sub(t.epoch).Nanoseconds(), End: now.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans[s.id-1] = rec
	t.mu.Unlock()
}

// finished returns the closed spans.
func (t *tracer) finished() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]spanRec, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ID != 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in ms of the spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.finished() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeJSONL writes every finished span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.finished() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimeTable aggregates spans by name: count, total time, and self
// time — a span's duration minus the part of it its children cover.
func (t *tracer) selfTimeTable() []string {
	spans := t.finished()
	children := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		count       int
		total, self int64
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.count++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - covered(s, children[s.ID])
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("span %-28s %8s %12s %12s", "name", "count", "total_ms", "self_ms")}
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("span %-28s %8d %12.3f %12.3f", n, a.count, float64(a.total)/1e6, float64(a.self)/1e6))
	}
	return out
}

// covered returns how much of parent's interval the union of kids'
// intervals covers.
func covered(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return sum + curHi - curLo
}
