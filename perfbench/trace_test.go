package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "psgl", Start: 0, End: 100},
		// Overlapping children cover [10,50] once, and the one that runs past
		// the parent's end counts only up to it: 40 + 10 of 100 covered.
		{ID: 2, Parent: 1, Layer: "core", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "core", Start: 20, End: 50},
		{ID: 4, Parent: 1, Layer: "bsp", Start: 90, End: 120},
		// A grandchild is subtracted from its parent only.
		{ID: 5, Parent: 3, Layer: "bloom", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"psgl": 50, "core": 20 + 20, "bsp": 30, "bloom": 10}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want layers %v", got, want)
	}
}

func TestNilTracerRunsTheCallAndRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	if id := tr.timed("t", "graph", "f", 0, func(int) { ran = true }); id != 0 || !ran {
		t.Fatalf("nil tracer: id %d, ran %v", id, ran)
	}
	tr = newTracer()
	parent := tr.timed("t", "psgl", "outer", 0, func(id int) {
		tr.timed("t", "core", "inner", id, func(int) { time.Sleep(time.Millisecond) })
	})
	if len(tr.spans) != 2 || tr.spans[1].Parent != parent || tr.spans[0].dur() < tr.spans[1].dur() {
		t.Fatalf("nested spans %+v", tr.spans)
	}
}
