package workload

import (
	"strconv"
	"testing"

	"amplify/internal/sim"
)

// TestTreeSpawnAllocations bounds the host cost of spawning: an
// untraced amplified run allocates one Thread record per simulated
// thread and nothing else per thread (no Ctx, no closure, no name, no
// node list). The machine's setup costs the same at any thread count,
// so the difference between runs of 2,000 and 1,000 threads is the
// cost of 1,000 threads; the bound leaves a tenth of an allocation per
// thread for the amortized growth of the engine's tables.
func TestTreeSpawnAllocations(t *testing.T) {
	allocs := func(threads int) float64 {
		cfg := TreeConfig{Depth: 1, Trees: threads, Threads: threads, Processors: 64, InitWork: 8, UseWork: 5}
		return testing.AllocsPerRun(3, func() {
			if _, err := RunTree("amplify", cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if per := (allocs(2000) - allocs(1000)) / 1000; per > 1.1 {
		t.Errorf("RunTree(amplify) makes %.2f host allocations per simulated thread, want at most 1.1", per)
	}
}

// TestTracedRunsNameWorkers checks that a traced run numbers its
// workers in spawn order, so trace artifacts name every thread, while
// an untraced run is free to share one name.
func TestTracedRunsNameWorkers(t *testing.T) {
	const threads = 12
	runs := []struct {
		prefix string
		run    func(sim.Tracer) error
	}{
		{"worker", func(tr sim.Tracer) error {
			_, err := RunTree("amplify", TreeConfig{Depth: 1, Trees: 30, Threads: threads, Tracer: tr})
			return err
		}},
		{"churn", func(tr sim.Tracer) error {
			_, err := RunChurn("serial", ChurnConfig{Threads: threads, OpsPerThread: 3, Tracer: tr})
			return err
		}},
	}
	for _, r := range runs {
		t.Run(r.prefix, func(t *testing.T) {
			rec := &sim.Recorder{Mask: sim.MaskOf(sim.EvSpawn, sim.EvThreadStart)}
			if err := r.run(rec); err != nil {
				t.Fatal(err)
			}
			var spawns, starts []string
			for _, ev := range rec.Snapshot() {
				switch {
				case ev.Kind == sim.EvSpawn:
					spawns = append(spawns, ev.Detail)
				case ev.Detail != "main":
					starts = append(starts, ev.Detail)
				}
			}
			for _, got := range [][]string{spawns, starts} {
				if len(got) != threads {
					t.Fatalf("got %d names %q, want %d", len(got), got, threads)
				}
				for i, name := range got {
					if want := r.prefix + strconv.Itoa(i); name != want {
						t.Errorf("thread %d is named %q, want %q", i, name, want)
					}
				}
			}
		})
	}
}
