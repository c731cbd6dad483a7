package obsv

import (
	"encoding/json"
	"reflect"
	"testing"

	"amplify/internal/sim"
	"amplify/internal/telemetry"
)

// TestChromeTraceHostTrack checks that pipeline spans land on the
// dedicated host PID with their nesting and attributes intact, and
// that the virtual-CPU tracks are the same with or without them.
func TestChromeTraceHostTrack(t *testing.T) {
	events := []sim.Event{
		{Time: 0, Thread: 1, CPU: 0, Kind: sim.EvThreadStart},
		{Time: 10, Thread: 1, CPU: 0, Kind: sim.EvLockContended, Detail: "m"},
		{Time: 30, Thread: 1, CPU: 0, Kind: sim.EvLockAcquire, Detail: "m"},
	}
	rec := telemetry.NewRecorder()
	var now int64
	rec.Clock = func() int64 { now += 5000; return now }
	root := rec.Start("pipeline")
	rec.Start("simulate").Set("makespan", 30).End()
	root.End()

	out, err := ChromeTraceSpans(events, 2, rec.Spans())
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			PID  int              `json:"pid"`
			TS   int64            `json:"ts"`
			Dur  int64            `json:"dur"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &tr); err != nil {
		t.Fatal(err)
	}
	var host []int
	for i, e := range tr.TraceEvents {
		if e.PID == hostPID && e.Ph == "X" {
			host = append(host, i)
		}
	}
	if len(host) != 2 {
		t.Fatalf("want 2 host spans, got %d in %s", len(host), out)
	}
	outer, inner := tr.TraceEvents[host[0]], tr.TraceEvents[host[1]]
	if outer.Name != "pipeline" || inner.Name != "pipeline/simulate" {
		t.Errorf("host span names = %q, %q", outer.Name, inner.Name)
	}
	if outer.TS != 0 {
		t.Errorf("host track not rebased to 0: ts=%d", outer.TS)
	}
	if inner.TS < outer.TS || inner.TS+inner.Dur > outer.TS+outer.Dur {
		t.Errorf("child span [%d,%d] not nested in parent [%d,%d]",
			inner.TS, inner.TS+inner.Dur, outer.TS, outer.TS+outer.Dur)
	}
	if inner.Args["makespan"] != 30 {
		t.Errorf("span attrs lost: %v", inner.Args)
	}

	// The virtual-CPU tracks must be untouched by the host track.
	spanless, err := ChromeTraceSpans(events, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var plain, withSpans struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(spanless, &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &withSpans); err != nil {
		t.Fatal(err)
	}
	var virtual []json.RawMessage
	for i, e := range withSpans.TraceEvents {
		if tr.TraceEvents[i].PID != hostPID {
			virtual = append(virtual, e)
		}
	}
	if !reflect.DeepEqual(virtual, plain.TraceEvents) {
		t.Error("the host track changed the virtual-CPU tracks")
	}
}
