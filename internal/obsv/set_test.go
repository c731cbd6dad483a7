package obsv

import (
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amplify/internal/sim"
)

// TestWarnDropped: an artifact written from an event recorder that hit
// its bound gets one warning line naming the file and the loss; a
// complete recorder gets none.
func TestWarnDropped(t *testing.T) {
	var b strings.Builder
	s := &Set{Events: &sim.Recorder{Max: 2}, Warn: log.New(&b, "mccrun: ", 0)}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	s.Events.Event(sim.Event{Kind: sim.EvSpawn})
	if err := s.Write(path, EventsJSONL); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("complete recorder warned: %q", b.String())
	}
	for range 5 {
		s.Events.Event(sim.Event{Kind: sim.EvSpawn})
	}
	if err := s.Write(path, EventsJSONL); err != nil {
		t.Fatal(err)
	}
	want := "mccrun: " + path + ": the event recorder kept its first 2 events and dropped 4; the artifact is truncated\n"
	if b.String() != want {
		t.Errorf("warning = %q, want %q", b.String(), want)
	}
}

// TestWriteJSONRefusesInvalid: invalid JSON is an error, never a file.
func TestWriteJSONRefusesInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := WriteJSON(path, []byte(`{"a":`)); err == nil {
		t.Error("invalid JSON written without error")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("invalid JSON reached disk: %v", err)
	}
}
