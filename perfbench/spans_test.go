package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Req: -1, Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,50]; a third sticks out of the
		// parent and counts only for [90,100].
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 2, Name: "c", Start: 15 * ms, End: 25 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["a"] != 40*ms || byName["root"] != 50*ms {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestSelfTimesDisjointChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "x", Start: 1, End: 2},
		{ID: 3, Parent: 1, Name: "x", Start: 4, End: 7},
	}
	if got := selfTimes(spans)[1]; got != 6 {
		t.Errorf("root self = %v, want 6", got)
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, -1)
	r.end(id)
	if id != 0 || r.snapshot() != nil {
		t.Fatal("nil recorder recorded a span")
	}
}

func TestRecorderOpenSpansExcluded(t *testing.T) {
	r := newRecorder()
	closed := r.begin("closed", 0, -1)
	r.begin("open", 0, -1)
	r.end(closed)
	if got := r.snapshot(); len(got) != 1 || got[0].Name != "closed" {
		t.Fatalf("snapshot = %+v", got)
	}
}
