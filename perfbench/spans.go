package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Offsets are from
// the recorder's epoch. Parent 0 marks a root; Req ties the spans of one
// request (a plan repetition or a submitted job) together, -1 for none.
type span struct {
	ID, Parent int
	Name       string
	Req        int
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced configuration: every method is a no-op, so the measured
// path carries only a nil check.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// begin opens a span starting now and returns its id (0 when untraced).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	return r.add(name, parent, req, r.now(), -1)
}

// end closes the span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// add records a span whose bounds the caller measured; end < 0 leaves it
// open for a later call to end.
func (r *recorder) add(name string, parent, req int, start, end time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes folds spans into per-span self time: a span's duration minus
// the part of its interval that its children cover. Children may overlap
// one another (concurrent clients) or stick out of the parent (clock
// reads on either side of a call), so coverage is the union of the
// children's intervals clipped to the parent. Spans whose parent is not in
// the set count as roots.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// within [lo, hi].
func covered(lo, hi time.Duration, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// durations returns the durations of the spans named name, in ms.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// writeChrome writes spans in the Chrome trace-event format (complete "X"
// events, microsecond timestamps), one lane per request, so the file opens
// in chrome://tracing or Perfetto.
func writeChrome(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Req + 1,
			Ts: us(s.Start), Dur: us(s.dur()),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "self_us": us(self[s.ID])},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
