package workload

import (
	"testing"

	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
	"amplify/internal/target"

	_ "amplify/internal/hoard"
	_ "amplify/internal/lfalloc"
	_ "amplify/internal/lkmalloc"
	_ "amplify/internal/ptmalloc"
	_ "amplify/internal/serial"
	_ "amplify/internal/smartheap"
)

// cfg returns a small but steady-state-reaching configuration used by
// the shape tests (InitWork/UseWork are the calibrated experiment
// values; see internal/bench).
func cfg(depth, threads int) TreeConfig {
	return TreeConfig{Depth: depth, Trees: 1200, Threads: threads, InitWork: 8, UseWork: 5}
}

func speedup(t *testing.T, strategy string, depth, threads int) float64 {
	t.Helper()
	base, err := RunTree("serial", cfg(depth, 1))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTree(strategy, cfg(depth, threads))
	if err != nil {
		t.Fatal(err)
	}
	return float64(base.Makespan) / float64(r.Makespan)
}

func TestNodes(t *testing.T) {
	// Table 1 of the paper.
	cases := []struct{ depth, objects int }{{1, 3}, {3, 15}, {5, 63}}
	for _, tc := range cases {
		if got := Nodes(tc.depth); got != tc.objects {
			t.Errorf("Nodes(%d) = %d, want %d", tc.depth, got, tc.objects)
		}
	}
}

func TestUnknownStrategy(t *testing.T) {
	if _, err := RunTree("bogus", cfg(1, 1)); err == nil {
		t.Fatal("expected error")
	}
}

func TestAllocationCounts(t *testing.T) {
	// Plain strategies allocate every node of every tree; amplify and
	// handmade only miss during warmup (one structure per thread/shard).
	c := cfg(3, 2)
	c.Trees = 100
	plain, err := RunTree("ptmalloc", c)
	if err != nil {
		t.Fatal(err)
	}
	wantPlain := int64(100 * Nodes(3))
	if plain.Alloc.Allocs != wantPlain {
		t.Errorf("plain allocs = %d, want %d", plain.Alloc.Allocs, wantPlain)
	}
	amp, err := RunTree("amplify", c)
	if err != nil {
		t.Fatal(err)
	}
	// Warmup: each of the two threads builds one full tree through the
	// pool; everything afterwards is structure reuse.
	wantWarmup := int64(2 * Nodes(3))
	if amp.Alloc.Allocs != wantWarmup {
		t.Errorf("amplify heap allocs = %d, want %d (warmup only)", amp.Alloc.Allocs, wantWarmup)
	}
	// Each thread performs trees/2 root allocations; only the first
	// misses, so hits = trees - threads.
	if wantHits := int64(100 - 2); amp.PoolHits != wantHits {
		t.Errorf("pool hits = %d, want %d", amp.PoolHits, wantHits)
	}
	hand, err := RunTree("handmade", c)
	if err != nil {
		t.Fatal(err)
	}
	if hand.Alloc.Allocs != wantWarmup {
		t.Errorf("handmade heap allocs = %d, want %d", hand.Alloc.Allocs, wantWarmup)
	}
}

func TestNoLeaks(t *testing.T) {
	for _, s := range []string{"serial", "ptmalloc", "hoard", "smartheap"} {
		r, err := RunTree(s, cfg(2, 3))
		if err != nil {
			t.Fatal(err)
		}
		if r.Alloc.LiveBlocks != 0 {
			t.Errorf("%s leaked %d blocks", s, r.Alloc.LiveBlocks)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := RunTree("amplify", cfg(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTree("amplify", cfg(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("non-deterministic: %d vs %d", a.Makespan, b.Makespan)
	}
}

// --- Shape regressions: the qualitative results of the paper's figures.

func TestSerialBaselineDoesNotScale(t *testing.T) {
	if s := speedup(t, "serial", 3, 8); s > 1.0 {
		t.Errorf("serial speedup at 8 threads = %.2f, want <= 1", s)
	}
}

func TestLibAllocatorsScaleToProcessorCount(t *testing.T) {
	for _, s := range []string{"ptmalloc", "hoard"} {
		s1, s8 := speedup(t, s, 3, 1), speedup(t, s, 3, 8)
		if s8 < 4*s1 {
			t.Errorf("%s: speedup 1T=%.2f 8T=%.2f, want near-linear scaling", s, s1, s8)
		}
	}
}

func TestAmplifyOutperformsLibAllocators(t *testing.T) {
	// §5.1: "In all our tests Amplify outperforms both Hoard and
	// ptmalloc, even when the data structure is shallow."
	for _, depth := range []int{1, 3, 5} {
		for _, threads := range []int{1, 2, 4, 8} {
			amp := speedup(t, "amplify", depth, threads)
			for _, lib := range []string{"ptmalloc", "hoard"} {
				if l := speedup(t, lib, depth, threads); amp < 0.98*l {
					t.Errorf("depth %d threads %d: amplify %.2f < %s %.2f", depth, threads, amp, lib, l)
				}
			}
		}
	}
}

func TestAmplifyTwoThreadDip(t *testing.T) {
	// Figure 4: amplify drops from 1 to 2 threads because the
	// pre-processor removes all locks in the non-threaded build.
	s1, s2 := speedup(t, "amplify", 1, 1), speedup(t, "amplify", 1, 2)
	if s2 >= s1 {
		t.Errorf("no dip: 1T=%.2f 2T=%.2f", s1, s2)
	}
}

func TestAmplifyScaleupPoorInCase1GoodInCase3(t *testing.T) {
	// Figures 7 vs 9: scaleup (normalized to the method's own 1-thread
	// run) is poor for shallow structures — pool metadata false sharing
	// — and strong for deep ones.
	scaleup := func(depth int) float64 {
		return speedup(t, "amplify", depth, 8) / speedup(t, "amplify", depth, 1)
	}
	c1, c3 := scaleup(1), scaleup(5)
	if c1 > 2.0 {
		t.Errorf("case 1 scaleup = %.2f, want poor (<= 2)", c1)
	}
	if c3 < 3.0 {
		t.Errorf("case 3 scaleup = %.2f, want strong (>= 3)", c3)
	}
	if c3 < 2*c1 {
		t.Errorf("case 3 scaleup %.2f not clearly above case 1 %.2f", c3, c1)
	}
}

func TestHoardDegradesPastProcessorCount(t *testing.T) {
	// Figure 10: Hoard does not scale when threads exceed processors
	// (thread-id modulation makes threads collide on heaps). Long
	// enough a run for the steady-state collision cost to dominate
	// warmup.
	long := func(strategy string, threads int) float64 {
		c := cfg(3, threads)
		c.Trees = 3200
		base, err := RunTree("serial", cfg(3, 1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunTree(strategy, c)
		if err != nil {
			t.Fatal(err)
		}
		// Normalize per tree since the runs differ in total trees.
		return float64(base.Makespan) / (float64(r.Makespan) * 1200 / 3200)
	}
	s8, s12 := long("hoard", 8), long("hoard", 12)
	if s12 > 0.8*s8 {
		t.Errorf("hoard 8T=%.2f 12T=%.2f, want clear degradation", s8, s12)
	}
	// While amplify holds its level.
	a8, a12 := long("amplify", 8), long("amplify", 12)
	if a12 < 0.8*a8 {
		t.Errorf("amplify 8T=%.2f 12T=%.2f, want sustained level", a8, a12)
	}
}

func TestHandmadeIsTheUpperBound(t *testing.T) {
	// Figure 10: the handmade pool is the theoretical maximum.
	for _, threads := range []int{1, 2, 8} {
		h, a := speedup(t, "handmade", 3, threads), speedup(t, "amplify", 3, threads)
		if h < a {
			t.Errorf("threads %d: handmade %.2f below amplify %.2f", threads, h, a)
		}
	}
}

func TestAmplifyFewFailedLocks(t *testing.T) {
	// §5.1: "we noticed a very low number of failed lock attempts"
	// within the pools.
	r, err := RunTree("amplify", cfg(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	perOp := float64(r.FailedTryLocks) / float64(r.PoolHits+r.PoolMisses+1)
	if perOp > 0.01 {
		t.Errorf("failed lock attempts per pool op = %.4f, want ~0", perOp)
	}
}

func TestAmplifyHelpsSequentialProgramsToo(t *testing.T) {
	// §7: "Amplify increases the performance of sequential as well as
	// parallel programs."
	if s := speedup(t, "amplify", 3, 1); s < 1.5 {
		t.Errorf("1-thread amplify speedup = %.2f, want clearly > 1", s)
	}
}

func TestMemoryFootprintBounded(t *testing.T) {
	// Structures are reused, so the amplified program's footprint must
	// stay within a small multiple of the plain program's.
	plain, err := RunTree("ptmalloc", cfg(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	amp, err := RunTree("amplify", cfg(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if amp.Footprint > 4*plain.Footprint {
		t.Errorf("amplify footprint %d vs plain %d", amp.Footprint, plain.Footprint)
	}
}

// poolRefs records the structures a pool handed out from the heap
// (misses) and from its free lists (hits).
type poolRefs struct{ missed, hit map[mem.Ref]bool }

func (p poolRefs) Event(e sim.Event) {
	switch e.Kind {
	case sim.EvPoolMiss:
		p.missed[mem.Ref(e.Arg2)] = true
	case sim.EvPoolHit:
		p.hit[mem.Ref(e.Arg2)] = true
	}
}

// TestShadowTableKeepsEveryNode runs threads that share one pool shard
// closely enough that a constructor's pool allocation takes another
// thread's pooled root as a child. After the run the shadow table must
// be a forest, as the objects' shadow fields are in the rewritten
// program: every node the heap served is in it, no node is the child
// of two parents, and the roots are exactly the pooled structures.
func TestShadowTableKeepsEveryNode(t *testing.T) {
	refs := poolRefs{map[mem.Ref]bool{}, map[mem.Ref]bool{}}
	cfg := TreeConfig{Depth: 5, Trees: 256, Threads: 64, InitWork: 500, UseWork: 500}
	m, err := target.Boot(target.Config{Strategy: "serial", Pool: pool.Config{Shards: 1}, Tracer: refs}, target.Options{})
	if err != nil {
		t.Fatal(err)
	}
	np := m.Pools.NewClassPool("Node", AmpNodeSize)
	table := new(shadowTable)
	forEachThread(m.Engine, cfg, func(c *sim.Ctx, trees int) {
		amplifiedWorker(c, m.Pools, np, table, cfg, trees)
	})
	m.Run()
	// Every node in the table came from the heap through the pool.
	shadows := map[mem.Ref][2]mem.Ref{}
	for r := range refs.missed {
		if kids, ok := table.Get(r); ok {
			shadows[r] = kids
		}
	}
	if len(shadows) != table.Len() {
		t.Fatalf("shadow table holds %d nodes, %d of them served by the heap", table.Len(), len(shadows))
	}

	parents := map[mem.Ref]int{}
	pooledChildren := 0
	for _, kids := range shadows {
		for _, k := range kids {
			parents[k]++
			if refs.hit[k] {
				pooledChildren++
			}
		}
	}
	if pooledChildren == 0 {
		t.Fatal("no pooled root was taken as a child; the run does not exercise that path")
	}
	roots := 0
	for r := range refs.missed {
		_, isParent := shadows[r]
		switch {
		case parents[r] > 1:
			t.Fatalf("node %#x is the child of %d parents", uint64(r), parents[r])
		case parents[r] == 0 && !isParent:
			t.Fatalf("node %#x served by the heap is not in the shadow table", uint64(r))
		case parents[r] == 0:
			roots++
		}
	}
	if roots != np.FreeCount() {
		t.Errorf("shadow table has %d roots, pool holds %d structures", roots, np.FreeCount())
	}
}
