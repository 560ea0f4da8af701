package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the id
// of the enclosing span (0 for none) and Run numbers the repetition (0 for
// set-up and the layer probes), so the spans of one repetition share it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNS int64  `json:"self_ns"`
}

// tracer times calls into the layers. It always measures the duration it
// hands back; only when on does it keep the spans, in memory, for write.
// The benchmark calls into the layers from one goroutine, so a stack gives
// each span its parent.
type tracer struct {
	on    bool
	t0    time.Time
	run   int
	spans []span
	open  []int // indices into spans of the spans not yet ended
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// timer is an open span; stop ends it.
type timer struct {
	tr    *tracer
	idx   int
	start time.Time
}

// begin opens a span named name.
func (t *tracer) begin(name string) timer {
	now := time.Now()
	if !t.on {
		return timer{tr: t, idx: -1, start: now}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now.Sub(t.t0).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
	return timer{tr: t, idx: len(t.spans) - 1, start: now}
}

// stop ends the span and returns its duration in seconds.
func (tm timer) stop() float64 {
	now := time.Now()
	if tm.idx >= 0 {
		t := tm.tr
		t.spans[tm.idx].End = now.Sub(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
	return now.Sub(tm.start).Seconds()
}

// durations returns the duration in seconds of every kept span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// fillSelf sets each span's self time: its duration minus the part of its
// interval that its child spans cover.
func (t *tracer) fillSelf() {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfNS = s.End - s.Start - covered
	}
}

// write stores the kept spans, with self times, as JSON.
func (t *tracer) write(path string) error {
	t.fillSelf()
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
