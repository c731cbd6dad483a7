package alloc_test

import (
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// countingTracer tallies allocator-level events and checks the
// stream's basic contract: virtual time never goes backwards, byte
// counts are positive and a request never exceeds its grant.
type countingTracer struct {
	t            *testing.T
	allocs       int64
	frees        int64
	reqBytes     int64
	allocedBytes int64
	freedBytes   int64
	lastNow      int64
}

func (o *countingTracer) Event(e sim.Event) {
	if e.Kind != sim.EvHeapAlloc && e.Kind != sim.EvHeapFree {
		return
	}
	if e.Time < o.lastNow {
		o.t.Errorf("event time went backwards: %d after %d", e.Time, o.lastNow)
	}
	o.lastNow = e.Time
	if e.Arg1 <= 0 || e.Arg2 == 0 {
		o.t.Errorf("%v with granted bytes %d at address %d", e.Kind, e.Arg1, e.Arg2)
	}
	if e.Kind == sim.EvHeapAlloc {
		if e.Arg3 <= 0 || e.Arg3 > e.Arg1 {
			o.t.Errorf("heap-alloc requested %d, granted %d", e.Arg3, e.Arg1)
		}
		o.allocs++
		o.reqBytes += e.Arg3
		o.allocedBytes += e.Arg1
		return
	}
	o.frees++
	o.freedBytes += e.Arg1
}

// observedChurn is the workload the observer conformance runs: a
// multithreaded churn with cross-call live windows, plus one oversize
// allocation per thread so the huge paths emit events too.
func observedChurn(e *sim.Engine, a alloc.Allocator) {
	for i := 0; i < 4; i++ {
		e.Go("w", func(c *sim.Ctx) {
			big := a.Alloc(c, 100_000)
			var refs []mem.Ref
			for j := 0; j < 150; j++ {
				refs = append(refs, a.Alloc(c, int64(16+j%7*24)))
				if len(refs) > 12 {
					a.Free(c, refs[0])
					refs = refs[1:]
				}
			}
			for _, r := range refs {
				a.Free(c, r)
			}
			a.Free(c, big)
		})
	}
}

// TestObserverConformance runs the conformance churn over every
// registered strategy with a tracer attached, so emission drift
// (missed events, wrong byte counts, events charged to the makespan)
// is caught for every allocator — current and future — in one place.
func TestObserverConformance(t *testing.T) {
	for _, s := range strategies {
		t.Run(s, func(t *testing.T) {
			// Baseline run without an observer: observation must be free.
			e0 := sim.New(sim.Config{Processors: 4})
			a0, err := alloc.New(s, e0, mem.NewSpace(), alloc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			observedChurn(e0, a0)
			bare := e0.Run()

			obs := &countingTracer{t: t}
			e := sim.New(sim.Config{Processors: 4, Tracer: obs})
			a, err := alloc.New(s, e, mem.NewSpace(), alloc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			observedChurn(e, a)
			observed := e.Run()

			if observed != bare {
				t.Errorf("observer changed the makespan: %d with, %d without", observed, bare)
			}
			st := a.Stats()
			if obs.allocs != st.Allocs {
				t.Errorf("observer saw %d allocs, stats say %d", obs.allocs, st.Allocs)
			}
			if obs.frees != st.Frees {
				t.Errorf("observer saw %d frees, stats say %d", obs.frees, st.Frees)
			}
			if obs.reqBytes != st.ReqBytes {
				t.Errorf("observer requested bytes %d != stats %d", obs.reqBytes, st.ReqBytes)
			}
			if obs.allocedBytes != st.GrantBytes {
				t.Errorf("observer alloc bytes %d != granted bytes %d", obs.allocedBytes, st.GrantBytes)
			}
			if got := obs.allocedBytes - obs.freedBytes; got != st.LiveBytes {
				t.Errorf("observer live bytes %d != stats %d", got, st.LiveBytes)
			}

			if insp, ok := a.(alloc.Inspector); ok {
				hi := insp.Inspect()
				// Both fragmentation ratios, 1 - requested/granted and
				// 1 - largest_free/free_bytes, must lie in [0,1).
				if hi.GrantedBytes < hi.ReqBytes {
					t.Errorf("granted %d < requested %d", hi.GrantedBytes, hi.ReqBytes)
				}
				if hi.GrantedBytes > 0 && hi.ReqBytes <= 0 {
					t.Errorf("granted %d bytes for %d requested", hi.GrantedBytes, hi.ReqBytes)
				}
				if hi.LargestFree > hi.FreeBytes {
					t.Errorf("largest free block %d > free bytes %d", hi.LargestFree, hi.FreeBytes)
				}
				if hi.FreeBytes > 0 && hi.LargestFree == 0 {
					t.Errorf("free bytes %d but no largest free block", hi.FreeBytes)
				}
			}
		})
	}
}
