package main

import (
	"testing"
	"time"
)

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{name: "step", id: 0, parent: -1, start: ms(0), end: ms(100)},
		// Two children overlap on [30, 40]; the cover counts once.
		{name: "a", id: 1, parent: 0, start: ms(10), end: ms(40)},
		{name: "b", id: 2, parent: 0, start: ms(30), end: ms(60)},
		// A child running past its parent is clipped to the parent.
		{name: "c", id: 3, parent: 0, start: ms(80), end: ms(120)},
		// A grandchild reduces only its own parent.
		{name: "a.1", id: 4, parent: 1, start: ms(15), end: ms(20)},
		// A child nested inside another child of the same parent.
		{name: "b.1", id: 5, parent: 2, start: ms(35), end: ms(45)},
		{name: "b.2", id: 6, parent: 2, start: ms(40), end: ms(50)},
	}
	want := []time.Duration{ms(100 - 50 - 20), ms(25), ms(30 - 15), ms(40), ms(5), ms(10), ms(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	tr.rename(id, "y")
	if id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}
