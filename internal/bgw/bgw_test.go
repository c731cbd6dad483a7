package bgw

import (
	"testing"

	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"

	_ "amplify/internal/hoard"
	_ "amplify/internal/ptmalloc"
	_ "amplify/internal/serial"
	_ "amplify/internal/smartheap"
)

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	if cfg.CDRs == 0 {
		cfg.CDRs = 1500
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGenerateDeterministicAndBounded(t *testing.T) {
	for i := 0; i < 2000; i++ {
		a, b := generate(i), generate(i)
		if a != b {
			t.Fatalf("generate(%d) not deterministic", i)
		}
		tops := [numArrays]int64{32, 32, 64, 128, 128, 256}
		for k, l := range a.arrayLens {
			if l <= tops[k]/2 || l > tops[k] {
				t.Fatalf("record %d array %d length %d outside (%d,%d]", i, k, l, tops[k]/2, tops[k])
			}
		}
	}
}

func TestHalfTheAllocationsAreLibrary(t *testing.T) {
	// §5.2: "only half of the allocations in BGw are made from the
	// application source code."
	r := run(t, Config{Strategy: "serial", Threads: 2})
	frac := float64(r.LibAllocs) / float64(r.LibAllocs+r.AppAllocs)
	if frac < 0.35 || frac > 0.55 {
		t.Fatalf("library allocation fraction = %.2f, want roughly half", frac)
	}
}

func TestUnknownStrategy(t *testing.T) {
	if _, err := Run(Config{Strategy: "bogus"}); err == nil {
		t.Fatal("expected error")
	}
}

func TestNoLeaks(t *testing.T) {
	// Everything the plain run allocates is freed.
	r := run(t, Config{Strategy: "smartheap", Threads: 3})
	if r.Alloc.LiveBlocks != 0 {
		t.Fatalf("leaked %d blocks", r.Alloc.LiveBlocks)
	}
	// The amplified run retains only shadow blocks and pooled records,
	// all released at thread exit except pooled records.
	ra := run(t, Config{Strategy: "smartheap", Threads: 3, Amplify: true})
	if ra.Alloc.LiveBlocks != 0 {
		t.Fatalf("amplified run leaked %d heap blocks", ra.Alloc.LiveBlocks)
	}
}

func TestShadowReuseDominates(t *testing.T) {
	r := run(t, Config{Strategy: "smartheap", Threads: 2, Amplify: true})
	total := int64(1500 * numArrays)
	if r.ShadowReuses < total*8/10 {
		t.Fatalf("shadow reuses = %d of %d array allocations", r.ShadowReuses, total)
	}
}

func TestSmartHeapScalesSerialDoesNot(t *testing.T) {
	s1 := run(t, Config{Strategy: "serial", Threads: 1})
	s8 := run(t, Config{Strategy: "serial", Threads: 8})
	if s8.Makespan < s1.Makespan {
		t.Errorf("serial BGw scaled: 1T=%d 8T=%d", s1.Makespan, s8.Makespan)
	}
	h1 := run(t, Config{Strategy: "smartheap", Threads: 1})
	h8 := run(t, Config{Strategy: "smartheap", Threads: 8})
	if float64(h8.Makespan) > 0.3*float64(h1.Makespan) {
		t.Errorf("smartheap BGw did not scale: 1T=%d 8T=%d", h1.Makespan, h8.Makespan)
	}
}

func TestAmplifyAloneNotScalable(t *testing.T) {
	// §5.2: "Amplify alone, i.e. without help from SmartHeap, did not
	// make BGw scalable" — the library half still serializes.
	a1 := run(t, Config{Strategy: "serial", Threads: 1, Amplify: true, ObjectsToo: true})
	a8 := run(t, Config{Strategy: "serial", Threads: 8, Amplify: true, ObjectsToo: true})
	if float64(a8.Makespan) < 0.7*float64(a1.Makespan) {
		t.Errorf("amplify-alone scaled: 1T=%d 8T=%d", a1.Makespan, a8.Makespan)
	}
}

func TestAmplifyOnTopOfSmartHeapGains(t *testing.T) {
	// Figure 11: SmartHeap+Amplify processes CDRs substantially faster
	// (the paper reports 17%).
	for _, threads := range []int{1, 2, 4} {
		sh := run(t, Config{Strategy: "smartheap", Threads: threads})
		amp := run(t, Config{Strategy: "smartheap", Threads: threads, Amplify: true})
		gain := float64(sh.Makespan)/float64(amp.Makespan) - 1
		if gain < 0.10 {
			t.Errorf("threads %d: gain = %.1f%%, want >= 10%%", threads, gain*100)
		}
		if gain > 0.30 {
			t.Errorf("threads %d: gain = %.1f%% suspiciously large", threads, gain*100)
		}
	}
}

func TestGainOrthogonalToParallelHeap(t *testing.T) {
	// §7: "the performance improvements of Amplify seem to be orthogonal
	// to the performance improvements of parallel heap managers" — the
	// relative gain exists both over the serial allocator and over a
	// parallel one (single-threaded, where the library bottleneck does
	// not mask it).
	for _, strategy := range []string{"serial", "smartheap", "ptmalloc"} {
		plain := run(t, Config{Strategy: strategy, Threads: 1})
		amp := run(t, Config{Strategy: strategy, Threads: 1, Amplify: true})
		gain := float64(plain.Makespan)/float64(amp.Makespan) - 1
		if gain < 0.08 {
			t.Errorf("%s: 1T gain = %.1f%%, want clear improvement", strategy, gain*100)
		}
	}
}

func TestArraysOnlyVersusAllObjects(t *testing.T) {
	// §5.2: array shadowing contributes the major part — pooling the
	// record objects on top adds little.
	arrays := run(t, Config{Strategy: "smartheap", Threads: 2, Amplify: true})
	all := run(t, Config{Strategy: "smartheap", Threads: 2, Amplify: true, ObjectsToo: true})
	ratio := float64(arrays.Makespan) / float64(all.Makespan)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("arrays-only vs all-objects makespan ratio = %.2f, want ~1", ratio)
	}
}

func TestMaxShadowBytesLimitsRetention(t *testing.T) {
	// §5.2: blocks above the shadow cap are freed normally.
	capped := run(t, Config{Strategy: "smartheap", Threads: 1, Amplify: true,
		Pool: poolConfigWithCap(64)})
	uncapped := run(t, Config{Strategy: "smartheap", Threads: 1, Amplify: true})
	if capped.ShadowReuses >= uncapped.ShadowReuses {
		t.Errorf("shadow cap did not reduce reuse: %d vs %d", capped.ShadowReuses, uncapped.ShadowReuses)
	}
}

func TestDeterministic(t *testing.T) {
	a := run(t, Config{Strategy: "smartheap", Threads: 4, Amplify: true})
	b := run(t, Config{Strategy: "smartheap", Threads: 4, Amplify: true})
	if a.Makespan != b.Makespan {
		t.Fatalf("non-deterministic: %d vs %d", a.Makespan, b.Makespan)
	}
}

func poolConfigWithCap(n int64) pool.Config {
	return pool.Config{MaxShadowBytes: n}
}

// recordOwners follows every pooled CDRRecord: the thread that last took
// it from recPool (and so freed it back) and the number of hits where a
// record changed thread.
type recordOwners struct {
	owner    map[mem.Ref]int
	handoffs int
}

func (o *recordOwners) Event(e sim.Event) {
	if (e.Kind != sim.EvPoolHit && e.Kind != sim.EvPoolMiss) || e.Detail != "CDRRecord" {
		return
	}
	ref := mem.Ref(e.Arg2)
	if prev, ok := o.owner[ref]; ok && e.Kind == sim.EvPoolHit && prev != e.Thread {
		o.handoffs++
	}
	o.owner[ref] = e.Thread
}

func handoffs(t *testing.T, cfg Config) int {
	t.Helper()
	o := &recordOwners{owner: map[mem.Ref]int{}}
	cfg.Tracer = o
	run(t, cfg)
	return o.handoffs
}

// TestRecordShadowsStayWithThread audits the worker's per-thread shadow
// state. In the generated program the shadowed arrays live in the
// record's shadow fields, so per-thread state equals them only while
// every record a thread takes from recPool is one it freed itself. That
// holds for Figure 11's pooled-record runs, where each thread has a
// pool shard of its own. When threads share a shard, a record one
// thread freed is taken by another: the worker then reuses its own
// arrays where the program would reuse the record's. The last run
// shows that this happens, so per-thread state is only exact with a
// shard per thread.
func TestRecordShadowsStayWithThread(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 6, 8} {
		cfg := Config{Threads: threads, Strategy: "serial", Amplify: true, ObjectsToo: true}
		if n := handoffs(t, cfg); n != 0 {
			t.Errorf("%d threads: %d records changed thread", threads, n)
		}
	}
	shared := Config{CDRs: 600, Threads: 4, Strategy: "serial", Amplify: true, ObjectsToo: true,
		Pool: pool.Config{Shards: 1}}
	if n := handoffs(t, shared); n == 0 {
		t.Error("one shard, 4 threads: no record changed thread")
	}
}
