package obsv

import (
	"encoding/json"
	"fmt"

	"amplify/internal/sim"
	"amplify/internal/telemetry"
)

// chromeEvent is one entry of the Chrome trace_event format
// (catapult's Trace Event Format). Field order is fixed by the struct,
// and args maps marshal with sorted keys, so serialization is
// deterministic — byte-identical across runs of the same simulation.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat,omitempty"`
	Ph   string           `json:"ph"`
	TS   int64            `json:"ts"`
	Dur  int64            `json:"dur,omitempty"`
	PID  int              `json:"pid"`
	TID  int              `json:"tid"`
	ID   string           `json:"id,omitempty"`
	S    string           `json:"s,omitempty"`
	Args map[string]int64 `json:"args,omitempty"`
}

// hostPID is the process ID of the host-pipeline track: the virtual
// CPUs render as PID 0's threads, the host-time pipeline spans as PID
// 1's, so one trace file shows both clocks side by side.
const hostPID = 1

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTraceSpans serializes a recorded event stream as Chrome
// trace_event JSON: one track (tid) per virtual CPU, instant events for
// the point occurrences (allocations, pool hits, migrations...), and
// async "lock-wait" slices spanning each interval a thread spent
// blocked on a mutex — the slices that make heap-lock serialization
// visible at a glance in chrome://tracing or Perfetto. Virtual cycles
// are mapped 1:1 to microseconds. procs is the simulated processor
// count (tracks are emitted even for CPUs that saw no events).
//
// spans add a dedicated host-time track: the pipeline spans render as
// complete ("X") slices under PID 1, nested by their recorded depth,
// alongside the virtual-CPU tracks of PID 0. Span timestamps are host nanoseconds rebased to the earliest
// span and scaled to microseconds, so the host track starts at 0 like
// the virtual one; the deterministic span attributes ride along as
// args. The virtual-CPU tracks are the same with or without spans.
func ChromeTraceSpans(events []sim.Event, procs int, spans []telemetry.Span) ([]byte, error) {
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 0, Args: map[string]int64{},
	})
	for cpu := 0; cpu < procs; cpu++ {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: cpu,
			// thread_name wants a string arg; we encode "cpu N" in the
			// event name instead (see nameFor), so sort order suffices.
			Args: map[string]int64{"sort_index": int64(cpu)},
		})
	}

	// waiting tracks, per thread, the open lock-wait interval: a
	// contended acquire that has not yet been handed the lock.
	type wait struct {
		lock string
		id   int
	}
	waiting := map[int]wait{}
	nextID := 0

	for _, e := range events {
		cpu := e.CPU
		if cpu < 0 {
			cpu = e.Thread % max(procs, 1)
		}
		switch e.Kind {
		case sim.EvLockContended:
			nextID++
			waiting[e.Thread] = wait{lock: e.Detail, id: nextID}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "wait " + e.Detail, Cat: "lock-wait", Ph: "b",
				TS: e.Time, PID: 0, TID: cpu, ID: fmt.Sprintf("w%d", nextID),
				Args: map[string]int64{"thread": int64(e.Thread)},
			})
		case sim.EvLockAcquire:
			if w, ok := waiting[e.Thread]; ok && w.lock == e.Detail {
				delete(waiting, e.Thread)
				tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
					Name: "wait " + e.Detail, Cat: "lock-wait", Ph: "e",
					TS: e.Time, PID: 0, TID: cpu, ID: fmt.Sprintf("w%d", w.id),
				})
				continue
			}
			tr.TraceEvents = append(tr.TraceEvents, instant(e, cpu))
		default:
			tr.TraceEvents = append(tr.TraceEvents, instant(e, cpu))
		}
	}
	if len(spans) > 0 {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: hostPID, TID: 0,
			Args: map[string]int64{"sort_index": -1},
		})
		origin := spans[0].StartNS
		for _, s := range spans {
			if s.StartNS < origin {
				origin = s.StartNS
			}
		}
		for _, s := range spans {
			args := map[string]int64{"seq": int64(s.Seq), "depth": int64(s.Depth)}
			for k, v := range s.Attrs {
				args[k] = v
			}
			dur := s.DurNS / 1000
			if dur <= 0 {
				dur = 1 // sub-microsecond spans still need visible extent
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: s.ID, Cat: "host", Ph: "X",
				TS: (s.StartNS - origin) / 1000, Dur: dur,
				PID: hostPID, TID: 0, Args: args,
			})
		}
	}
	out, err := json.Marshal(tr)
	if err != nil {
		return nil, err
	}
	if !json.Valid(out) {
		return nil, fmt.Errorf("obsv: chrome exporter emitted invalid JSON")
	}
	return out, nil
}

// instant renders a point event on its CPU track.
func instant(e sim.Event, cpu int) chromeEvent {
	name := e.Kind.String()
	if e.Detail != "" {
		name += " " + e.Detail
	}
	args := map[string]int64{"thread": int64(e.Thread)}
	if e.Arg1 != 0 {
		args["a1"] = e.Arg1
	}
	if e.Arg2 != 0 {
		args["a2"] = e.Arg2
	}
	return chromeEvent{
		Name: name, Cat: "sim", Ph: "i", S: "t",
		TS: e.Time, PID: 0, TID: cpu, Args: args,
	}
}
