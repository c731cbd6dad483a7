package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fakeClock returns a deterministic monotonically increasing clock.
func fakeClock() func() int64 {
	var t int64
	return func() int64 {
		t += 1000
		return t
	}
}

func record() *Recorder {
	r := NewRecorder()
	r.Clock = fakeClock()
	root := r.Start("pipeline").Set("src_bytes", 42)
	r.Start("parse").End()
	r.Start("compile").End()
	r.Start("compile").End() // second occurrence: ID must pick up #2
	sim := r.Start("simulate").Set("makespan", 12345)
	r.Start("export").End()
	sim.End()
	root.End()
	return r
}

func TestSpanIDsAndNesting(t *testing.T) {
	spans := record().Spans()
	want := []struct {
		id, parent string
		depth      int
	}{
		{"pipeline", "", 0},
		{"pipeline/parse", "pipeline", 1},
		{"pipeline/compile", "pipeline", 1},
		{"pipeline/compile#2", "pipeline", 1},
		{"pipeline/simulate", "pipeline", 1},
		{"pipeline/simulate/export", "pipeline/simulate", 2},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(spans), len(want))
	}
	for i, w := range want {
		s := spans[i]
		if s.ID != w.id || s.Parent != w.parent || s.Depth != w.depth || s.Seq != i {
			t.Errorf("span %d = {ID:%q Parent:%q Depth:%d Seq:%d}, want {%q %q %d %d}",
				i, s.ID, s.Parent, s.Depth, s.Seq, w.id, w.parent, w.depth, i)
		}
		if s.DurNS <= 0 {
			t.Errorf("span %s has no duration", s.ID)
		}
	}
	if spans[4].Attrs["makespan"] != 12345 {
		t.Errorf("simulate attrs = %v", spans[4].Attrs)
	}
}

func TestEndingParentClosesChildren(t *testing.T) {
	r := NewRecorder()
	r.Clock = fakeClock()
	root := r.Start("root")
	r.Start("child") // never explicitly ended
	root.End()
	spans := r.Spans()
	if spans[1].DurNS <= 0 {
		t.Errorf("child left open after parent End: %+v", spans[1])
	}
	// A second End on an already-popped span must be a no-op.
	root.End()
	if got := len(r.Spans()); got != 2 {
		t.Errorf("double End changed span count: %d", got)
	}
}

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	s := r.Start("anything")
	s.Set("k", 1)
	s.End()
	if r.Spans() != nil || r.JSONL() != nil || r.String() != "" {
		t.Error("nil recorder produced output")
	}
}

// TestJSONLIsByteStable: two recordings of the same phases on the same
// clock render the same bytes, one valid JSON object per span, with the
// host timestamps included.
func TestJSONLIsByteStable(t *testing.T) {
	a := record().JSONL()
	b := record().JSONL()
	if !bytes.Equal(a, b) {
		t.Fatalf("JSONL differs across identical runs:\n%s\nvs\n%s", a, b)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(a), []byte("\n")) {
		if !json.Valid(line) {
			t.Errorf("invalid JSONL line: %s", line)
		}
	}
	if !bytes.Contains(a, []byte(`"start_ns":1000`)) {
		t.Error("JSONL missing host timestamps")
	}
}

func TestAddTo(t *testing.T) {
	reg := map[string]int64{}
	record().AddTo(reg)
	for key, want := range map[string]int64{
		"span.compile.count":     2,
		"span.simulate.count":    1,
		"span.simulate.makespan": 12345,
		"span.pipeline.count":    1,
	} {
		if reg[key] != want {
			t.Errorf("reg[%q] = %d, want %d", key, reg[key], want)
		}
	}
	for key := range reg {
		if strings.Contains(key, "ns") {
			t.Errorf("host duration leaked into registry: %s", key)
		}
	}
}

func TestDiffCounts(t *testing.T) {
	old := map[string]int64{"a": 100, "b": 50, "c": 850}
	new := map[string]int64{"a": 100, "b": 350, "d": 50}
	ds := DiffCounts(old, new, 0)
	if len(ds) != 3 {
		t.Fatalf("got %d deltas: %+v", len(ds), ds)
	}
	// Ranked by |delta| desc: c -850, b +300, d +50.
	if ds[0].Key != "c" || ds[0].Delta != -850 || ds[0].ShareBP != 8500 {
		t.Errorf("top delta = %+v", ds[0])
	}
	if ds[1].Key != "b" || ds[1].Delta != 300 || ds[1].ShareBP != 3000 {
		t.Errorf("second delta = %+v", ds[1])
	}
	if ds[2].Key != "d" || ds[2].Delta != 50 || ds[2].ShareBP != 500 {
		t.Errorf("third delta = %+v", ds[2])
	}
	// Threshold prunes the tail.
	if got := DiffCounts(old, new, 1000); len(got) != 2 {
		t.Errorf("minShareBP 1000 kept %d deltas: %+v", len(got), got)
	}
	if got := DiffCounts(nil, nil, 0); len(got) != 0 {
		t.Errorf("empty diff produced %+v", got)
	}
}

func TestParseFolded(t *testing.T) {
	folded := "main;worker;alloc 400\nmain;worker;free 50\nmain;io 25\n"
	leaves := LeafTotals(ParseFolded(folded))
	if leaves["alloc"] != 400 || leaves["io"] != 25 {
		t.Errorf("leaf totals = %v", leaves)
	}
	// Malformed lines are skipped, not fatal.
	if m := ParseFolded("garbage\n\nx 12\n"); m["x"] != 12 || len(m) != 1 {
		t.Errorf("ParseFolded tolerance: %v", m)
	}
}
