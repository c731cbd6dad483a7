package obsv

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"

	"amplify/internal/alloctrace"
	"amplify/internal/heapobsv"
	"amplify/internal/sim"
	"amplify/internal/telemetry"
)

// MaxEvents is the bound every artifact-feeding event recorder gets:
// the Chrome trace, the JSONL stream and the lock profile are rendered
// from at most this many events.
const MaxEvents = 4_000_000

// Set is the observation bundle of one simulated run: every consumer
// the run may carry, composed into its one event stream (Tracer),
// closed at the makespan (Finish) and rendered to files (Write). A nil
// consumer is absent. Consumers never see each other, so an artifact
// is the same whatever else the set holds, and observation never
// changes the run's simulated results.
type Set struct {
	// Head keeps the first few events for a text timeline. It has its
	// own bound, so it never truncates Events.
	Head *sim.Recorder
	// Events feeds ChromeJSON, EventsJSONL and LockTable; bound it
	// with Max: MaxEvents.
	Events *sim.Recorder
	// Profile attributes simulated cycles to MiniCC functions.
	Profile *Profiler
	// Heap samples the heap in virtual time.
	Heap *heapobsv.Timeline
	// Sites attributes allocated bytes to MiniCC allocation sites.
	Sites *heapobsv.SiteProfile
	// Allocs records the allocator request stream.
	Allocs *alloctrace.Recorder

	// Procs is the simulated processor count: ChromeJSON draws one
	// track per virtual CPU.
	Procs int
	// Spans are the host pipeline spans: ChromeJSON draws them as a
	// host track, SpansJSONL streams them.
	Spans *telemetry.Recorder
	// Warn gets one line per artifact written from an Events recorder
	// that hit its bound, so a truncated export never passes for a
	// complete one; nil drops the line.
	Warn *log.Logger
}

// Tracer composes the set's consumers into the run's one event stream.
// It is nil for an empty set, which keeps the engine's detached path.
func (s *Set) Tracer() sim.Tracer {
	return sim.NewTee(s.Head, s.Events, s.Profile, s.Heap, s.Sites, s.Allocs)
}

// Finish closes the consumers that integrate up to the end of the run,
// the cycle profile and the heap timeline, at the run's makespan. Call
// it once, after the run and before Write.
func (s *Set) Finish(makespan int64) {
	if s.Profile != nil {
		s.Profile.Finish(makespan)
	}
	if s.Heap != nil {
		s.Heap.Finish(makespan)
	}
}

// Artifact names one rendering of a finished Set.
type Artifact int

const (
	ChromeJSON   Artifact = iota // Events (and Spans) as Chrome trace_event JSON
	EventsJSONL                  // Events as compact JSON lines
	LockTable                    // per-lock contention table of Events
	CycleStacks                  // Profile's folded stacks of simulated cycles
	HeapTimeline                 // Heap's samples: CSV when the path ends in .csv, else JSONL
	SiteStacks                   // Sites' folded stacks of allocated bytes
	SiteTable                    // Sites' per-site table
	AllocTrace                   // Allocs' binary trace, with its JSONL mirror at path+".jsonl"
	SpansJSONL                   // Spans as JSON lines
)

// Write renders one artifact of the finished set to path, or to stderr
// when path is "-". JSON artifacts must pass json.Valid, and a recorded
// allocation trace must validate, before anything reaches disk.
func (s *Set) Write(path string, a Artifact) error {
	var out []byte
	var err error
	write := writeFile
	switch a {
	case ChromeJSON:
		out, err = ChromeTraceSpans(s.Events.Snapshot(), s.Procs, s.Spans.Spans())
		write = WriteJSON
	case EventsJSONL:
		out, err = JSONL(s.Events.Snapshot())
	case LockTable:
		out = []byte(FormatLockProfile(LockProfile(s.Events.Snapshot())))
	case CycleStacks:
		out = []byte(s.Profile.Folded())
	case HeapTimeline:
		out = s.Heap.JSONL()
		if strings.HasSuffix(path, ".csv") {
			out = s.Heap.CSV()
		}
	case SiteStacks:
		out = []byte(s.Sites.Folded(heapobsv.MetricAllocBytes))
	case SiteTable:
		out = []byte(s.Sites.Table())
	case AllocTrace:
		tr := s.Allocs.Trace()
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("recorded trace failed validation: %w", err)
		}
		if err := writeFile(path, tr.Encode()); err != nil {
			return err
		}
		out, path = tr.JSONL(), path+".jsonl"
	case SpansJSONL:
		out = s.Spans.JSONL()
	default:
		err = fmt.Errorf("obsv: unknown artifact %d", a)
	}
	if err != nil {
		return err
	}
	if err := write(path, out); err != nil {
		return err
	}
	if (a == ChromeJSON || a == EventsJSONL || a == LockTable) && s.Warn != nil && s.Events.Dropped > 0 {
		s.Warn.Printf("%s: the event recorder kept its first %d events and dropped %d; the artifact is truncated",
			path, len(s.Events.Events), s.Events.Dropped)
	}
	return nil
}

// WriteJSON writes a JSON artifact to path, or to stderr when path is
// "-"; out must pass json.Valid.
func WriteJSON(path string, out []byte) error {
	if !json.Valid(out) {
		return fmt.Errorf("%s: export produced invalid JSON", path)
	}
	return writeFile(path, out)
}

func writeFile(path string, out []byte) error {
	if path == "-" {
		_, err := os.Stderr.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
