package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one replayed operation share Query; Parent
// is the span that caused this one, 0 for the operation itself.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. The ladder replays operations one at
// a time, so the spans open at any instant form one stack — also across
// the loopback HTTP hop, where the handler's goroutine opens its span
// while the client's is still open. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // indices into spans, innermost last
	query int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(layer, name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Query: t.query, Layer: layer, Name: name})
	t.open = append(t.open, idx)
	t.spans[idx].Start = int64(time.Since(t.t0))
	t.mu.Unlock()
	return func() {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[idx].End = end
		for i := len(t.open) - 1; i >= 0; i-- {
			if t.open[i] == idx {
				t.open = append(t.open[:i], t.open[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
}

// nextQuery starts the spans of the next replayed operation.
func (t *tracer) nextQuery() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.query++
	t.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Children that overlap
// one another are counted once; a child reaching outside its parent is
// clipped to it.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
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
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeJSONL writes the spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
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
