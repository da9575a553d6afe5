package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark side of
// the layer's public surface.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once at exit. A nil
// *tracer records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cur   int // the open round span: parent of the layer calls in it
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: -1})
	return id
}

// round returns the open round span (0 on a nil tracer).
func (t *tracer) round() int {
	if t == nil {
		return 0
	}
	return t.cur
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
