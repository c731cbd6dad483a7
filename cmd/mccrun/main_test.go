package main

import (
	"strings"
	"testing"

	"amplify/internal/sim"
)

// TestWarnDropped: an artifact written from a recorder that hit its
// bound gets one stderr line naming the file and the loss; a complete
// recorder gets none.
func TestWarnDropped(t *testing.T) {
	rec := &sim.Recorder{Max: 2}
	var b strings.Builder
	rec.Event(sim.Event{Kind: sim.EvSpawn})
	warnDropped(&b, rec, "t.jsonl")
	if b.Len() != 0 {
		t.Errorf("complete recorder warned: %q", b.String())
	}
	for range 5 {
		rec.Event(sim.Event{Kind: sim.EvSpawn})
	}
	warnDropped(&b, rec, "t.jsonl")
	want := "mccrun: t.jsonl: the event recorder kept its first 2 events and dropped 4; the artifact is truncated\n"
	if b.String() != want {
		t.Errorf("warning = %q, want %q", b.String(), want)
	}
}
