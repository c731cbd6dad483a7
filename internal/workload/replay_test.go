package workload

import (
	"bytes"
	"testing"

	"amplify/internal/alloctrace"
)

func TestReplayDrivesWholeTrace(t *testing.T) {
	tr, err := alloctrace.Corpus("handoff")
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	for _, strategy := range ReplayStrategies() {
		res, err := RunReplay(strategy, ReplayConfig{Trace: tr})
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: non-positive makespan %d", strategy, res.Makespan)
		}
		if res.Alloc.Allocs != st.Allocs || res.Alloc.Frees != st.Frees {
			t.Errorf("%s: replayed %d/%d ops, trace has %d/%d",
				strategy, res.Alloc.Allocs, res.Alloc.Frees, st.Allocs, st.Frees)
		}
		if res.Alloc.LiveBlocks != st.Leaked {
			t.Errorf("%s: %d live blocks after replay, trace leaks %d",
				strategy, res.Alloc.LiveBlocks, st.Leaked)
		}
	}
}

func TestReplayDeterministic(t *testing.T) {
	tr, err := alloctrace.Corpus("smallmix")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunReplay("hoard", ReplayConfig{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplay("hoard", ReplayConfig{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Sim != b.Sim {
		t.Fatalf("replay not deterministic: makespans %d vs %d", a.Makespan, b.Makespan)
	}
}

// TestReplayRecaptureIdempotent is the format's fixed-point determinism
// proof: re-capturing a replay yields a trace whose own replay
// re-captures byte-identically. (The first re-capture differs from the
// source corpus only in timestamps — the replayed allocator schedules
// its own virtual time — so idempotence, not identity, is the
// invariant.)
func TestReplayRecaptureIdempotent(t *testing.T) {
	tr, err := alloctrace.Corpus("handoff")
	if err != nil {
		t.Fatal(err)
	}
	rec1 := alloctrace.NewRecorder("recapture")
	if _, err := RunReplay("ptmalloc", ReplayConfig{Trace: tr, Tracer: rec1}); err != nil {
		t.Fatal(err)
	}
	t1 := rec1.Trace()
	if err := t1.Validate(); err != nil {
		t.Fatalf("re-captured trace invalid: %v", err)
	}
	if rec1.DroppedFrees != 0 {
		t.Fatalf("re-capture dropped %d frees", rec1.DroppedFrees)
	}
	st, st1 := tr.Stats(), t1.Stats()
	if st1.Allocs != st.Allocs || st1.Frees != st.Frees || st1.CrossThreadFrees != st.CrossThreadFrees {
		t.Fatalf("re-capture changed the stream shape: %+v vs %+v", st1, st)
	}

	rec2 := alloctrace.NewRecorder("recapture")
	if _, err := RunReplay("ptmalloc", ReplayConfig{Trace: t1, Tracer: rec2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec2.Trace().Encode(), t1.Encode()) {
		t.Fatal("replay re-capture is not idempotent")
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := RunReplay("serial", ReplayConfig{}); err == nil {
		t.Error("nil trace did not error")
	}
	bad := &alloctrace.Trace{Name: "bad", Sites: []string{"x"}}
	if _, err := RunReplay("serial", ReplayConfig{Trace: bad}); err == nil {
		t.Error("invalid trace did not error")
	}
	tr, err := alloctrace.Corpus("fragstorm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunReplay("nope", ReplayConfig{Trace: tr}); err == nil {
		t.Error("unknown strategy did not error")
	}
}
