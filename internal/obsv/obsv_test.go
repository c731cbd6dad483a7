package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"amplify/internal/sim"
)

func ev(t int64, th, cpu int, k sim.EventKind, d string, a1, a2 int64) sim.Event {
	return sim.Event{Time: t, Thread: th, CPU: cpu, Kind: k, Detail: d, Arg1: a1, Arg2: a2}
}

func TestChromeTraceValidAndSlices(t *testing.T) {
	events := []sim.Event{
		ev(0, 0, 0, sim.EvThreadStart, "worker-0", 0, 0),
		ev(10, 1, 1, sim.EvLockContended, "heap", 0, 0),
		ev(50, 1, 1, sim.EvLockAcquire, "heap", 0, 0),
		ev(60, 0, 0, sim.EvAlloc, "Node", 48, 4096),
	}
	out, err := ChromeTraceSpans(events, 2, nil)
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	if !json.Valid(out) {
		t.Fatalf("exporter produced invalid JSON")
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &tr); err != nil {
		t.Fatal(err)
	}
	var begins, ends, instants, meta int
	for _, e := range tr.TraceEvents {
		switch e["ph"] {
		case "b":
			begins++
			if e["cat"] != "lock-wait" {
				t.Errorf("async begin with cat %v", e["cat"])
			}
		case "e":
			ends++
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if begins != 1 || ends != 1 {
		t.Errorf("want one lock-wait slice, got %d begins %d ends", begins, ends)
	}
	if instants != 2 {
		t.Errorf("want 2 instants (start, alloc), got %d", instants)
	}
	if meta != 3 { // process_name + 2 CPU tracks
		t.Errorf("want 3 metadata events, got %d", meta)
	}
}

func TestChromeTraceUncontendedAcquireIsInstant(t *testing.T) {
	// An acquire with no preceding contended event must not emit a
	// dangling async end.
	out, err := ChromeTraceSpans([]sim.Event{
		ev(5, 0, 0, sim.EvLockAcquire, "heap", 0, 0),
	}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte(`"ph":"e"`)) {
		t.Errorf("uncontended acquire produced an async end:\n%s", out)
	}
}

func TestJSONLDeterministicAndParseable(t *testing.T) {
	events := []sim.Event{
		ev(0, 0, 0, sim.EvAlloc, "Node", 48, 100),
		ev(5, 1, 1, sim.EvPoolHit, "Node", 48, 100),
	}
	a, err := JSONL(events)
	if err != nil {
		t.Fatal(err)
	}
	b, err := JSONL(events)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("JSONL output not deterministic")
	}
	lines := bytes.Split(bytes.TrimSpace(a), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	for _, ln := range lines {
		if !json.Valid(ln) {
			t.Errorf("invalid JSONL line %q", ln)
		}
	}
	if !bytes.Contains(lines[1], []byte(`"kind":"pool-hit"`)) {
		t.Errorf("second line misses kind: %s", lines[1])
	}
}

// totalAttributed reports the cycles p charged to named functions.
func totalAttributed(p *Profiler) int64 {
	var total int64
	var walk func(n *pnode)
	walk = func(n *pnode) {
		total += n.self
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(p.root)
	return total
}

func TestProfilerExactAttribution(t *testing.T) {
	p := NewProfiler()
	// Thread 0: main [0,100), calls f at 10 which runs [10,40), calls g
	// at 20 running [20,30). Self times: main 70, f 20, g 10.
	p.enter(0, "main", 0)
	p.enter(0, "f", 10)
	p.enter(0, "g", 20)
	p.exit(0, 30)
	p.exit(0, 40)
	p.exit(0, 100)
	folded := p.Folded()
	for _, want := range []string{"main 70", "main;f 20", "main;f;g 10"} {
		if !strings.Contains(folded, want+"\n") {
			t.Errorf("folded output missing %q:\n%s", want, folded)
		}
	}
	if got := totalAttributed(p); got != 100 {
		t.Errorf("attributed %d, want 100", got)
	}
}

func TestProfilerFinishClosesOpenFrames(t *testing.T) {
	p := NewProfiler()
	p.enter(0, "main", 0)
	p.enter(0, "loop", 10)
	p.Finish(50)
	if got := totalAttributed(p); got != 50 {
		t.Errorf("attributed %d, want 50", got)
	}
	if !strings.Contains(p.Folded(), "main;loop 40") {
		t.Errorf("open frame not charged:\n%s", p.Folded())
	}
}

func TestProfilerSeparateThreadStacks(t *testing.T) {
	p := NewProfiler()
	p.enter(0, "main", 0)
	p.enter(1, "worker", 0)
	p.exit(1, 30)
	p.exit(0, 50)
	folded := p.Folded()
	if !strings.Contains(folded, "main 50") || !strings.Contains(folded, "worker 30") {
		t.Errorf("per-thread stacks mixed:\n%s", folded)
	}
}

func TestLockProfile(t *testing.T) {
	events := []sim.Event{
		ev(0, 0, 0, sim.EvLockAcquire, "heap", 0, 0),
		ev(5, 1, 1, sim.EvLockContended, "heap", 0, 0),
		ev(8, 2, 2, sim.EvLockContended, "heap", 0, 0),
		ev(20, 0, 0, sim.EvLockHandoff, "heap", 0, 2),
		ev(20, 1, 1, sim.EvLockAcquire, "heap", 0, 0),
		ev(40, 2, 2, sim.EvLockAcquire, "heap", 0, 0),
		ev(50, 3, 3, sim.EvLockAcquire, "pool.Node.0", 0, 0),
	}
	stats := LockProfile(events)
	if len(stats) != 2 {
		t.Fatalf("want 2 locks, got %d", len(stats))
	}
	heap := stats[0] // sorted by wait cycles, heap first
	if heap.Name != "heap" {
		t.Fatalf("want heap first, got %q", heap.Name)
	}
	if heap.WaitCycles != (20-5)+(40-8) {
		t.Errorf("WaitCycles = %d, want 47", heap.WaitCycles)
	}
	if heap.Contended != 2 || heap.Acquires != 3 || heap.Handoffs != 1 {
		t.Errorf("counts wrong: %+v", heap)
	}
	if heap.MaxWaiters != 2 {
		t.Errorf("MaxWaiters = %d, want 2", heap.MaxWaiters)
	}
	if stats[1].Name != "pool.Node.0" || stats[1].WaitCycles != 0 {
		t.Errorf("second lock wrong: %+v", stats[1])
	}
}
