package heapobsv_test

import (
	"bytes"
	"reflect"
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/bgw"
	"amplify/internal/heapobsv"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
	"amplify/internal/vm"
	"amplify/internal/workload"

	_ "amplify/internal/hoard"
	_ "amplify/internal/ptmalloc"
	_ "amplify/internal/serial"
)

// runOn drives fn inside a one-thread simulation with a fresh
// allocator (conformance_test.go style) and an optional tracer.
func runOn(t *testing.T, strategy string, opt alloc.Options, tr sim.Tracer, fn func(c *sim.Ctx, sp *mem.Space, a alloc.Allocator)) {
	t.Helper()
	e := sim.New(sim.Config{Processors: 8, Tracer: tr})
	sp := mem.NewSpace()
	a, err := alloc.New(strategy, e, sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	e.Go("t0", func(c *sim.Ctx) { fn(c, sp, a) })
	e.Run()
}

// TestSerialFragmentationHandCounted pins the introspection numbers of
// a three-allocation scenario on the serial allocator to values derived
// by hand from heapcore's size classes (16,32,...,512,1024,...) and its
// 64 KiB wilderness chunk with 8-byte headers.
func TestSerialFragmentationHandCounted(t *testing.T) {
	runOn(t, "serial", alloc.Options{}, nil, func(c *sim.Ctx, sp *mem.Space, a alloc.Allocator) {
		insp := a.(alloc.Inspector)

		ra := a.Alloc(c, 20)  // class 32
		rb := a.Alloc(c, 100) // class 112
		a.Alloc(c, 600)       // class 1024

		hi := insp.Inspect()
		want := alloc.HeapInfo{
			ReqBytes:     720,  // 20+100+600
			GrantedBytes: 1168, // 32+112+1024
			// Three carves of stride usable+8 from one 64 KiB chunk:
			// 65536 - (40+120+1032) = 64344.
			WildernessFree: 64344,
			WildernessHW:   65536,
		}
		if !reflect.DeepEqual(hi, want) {
			t.Fatalf("after allocs: Inspect() = %+v, want %+v", hi, want)
		}
		if got := frag(hi.ReqBytes, hi.GrantedBytes); got < 0.38 || got > 0.39 {
			t.Errorf("internal fragmentation = %v, want 1-720/1168 ~ 0.3836", got)
		}

		// One freed block: the only free block is the largest, so
		// external fragmentation is zero by definition.
		a.Free(c, rb)
		hi = insp.Inspect()
		if hi.FreeBlocks != 1 || hi.FreeBytes != 112 || hi.LargestFree != 112 {
			t.Fatalf("after free(112): %+v", hi)
		}
		if got := frag(hi.LargestFree, hi.FreeBytes); got != 0 {
			t.Errorf("single free block: external fragmentation = %v, want 0", got)
		}

		// Two freed blocks in different bins: 1 - 112/144.
		a.Free(c, ra)
		hi = insp.Inspect()
		if hi.FreeBlocks != 2 || hi.FreeBytes != 144 || hi.LargestFree != 112 {
			t.Fatalf("after free(32): %+v", hi)
		}
		if got := frag(hi.LargestFree, hi.FreeBytes); got < 0.22 || got > 0.23 {
			t.Errorf("external fragmentation = %v, want 1-112/144 ~ 0.2222", got)
		}
	})
}

// frag is a fragmentation ratio, 1 - part/whole: internal
// fragmentation over requested and granted bytes, external over the
// largest free block and all free bytes.
func frag(part, whole int64) float64 {
	return 1 - float64(part)/float64(whole)
}

// TestTimelineSampleHandCounted drives a Timeline as the tracer of
// the serial scenario above and pins the basis-point fields of the
// final sample: 10000-720*10000/1168 = 3836 and 10000-112*10000/144 =
// 2223.
func TestTimelineSampleHandCounted(t *testing.T) {
	tl := &heapobsv.Timeline{}
	runOn(t, "serial", alloc.Options{}, tl, func(c *sim.Ctx, sp *mem.Space, a alloc.Allocator) {
		tl.Watch(sp, a, nil)
		ra := a.Alloc(c, 20)
		rb := a.Alloc(c, 100)
		a.Alloc(c, 600)
		a.Free(c, rb)
		a.Free(c, ra)
	})
	tl.Finish(12345)
	samples := tl.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	last := samples[len(samples)-1]
	if last.Now != 12345 {
		t.Errorf("final sample Now = %d, want the makespan 12345", last.Now)
	}
	if last.Allocs != 3 || last.Frees != 2 {
		t.Errorf("event counters = %d allocs / %d frees, want 3/2", last.Allocs, last.Frees)
	}
	if last.IntFragBP != 3836 {
		t.Errorf("IntFragBP = %d, want 3836", last.IntFragBP)
	}
	if last.ExtFragBP != 2223 {
		t.Errorf("ExtFragBP = %d, want 2223", last.ExtFragBP)
	}
	if last.LiveBlocks != 1 || last.LiveBytes != 1024 {
		t.Errorf("live = %d blocks / %d bytes, want 1/1024", last.LiveBlocks, last.LiveBytes)
	}
	if last.Footprint <= 0 {
		t.Errorf("Footprint = %d, want > 0", last.Footprint)
	}
}

// TestPtmallocArenaOccupancy checks the per-arena breakdown of a
// single-arena scenario block by block.
func TestPtmallocArenaOccupancy(t *testing.T) {
	runOn(t, "ptmalloc", alloc.Options{}, nil, func(c *sim.Ctx, sp *mem.Space, a alloc.Allocator) {
		r1 := a.Alloc(c, 20) // class 32
		a.Alloc(c, 20)
		a.Alloc(c, 100) // class 112
		a.Free(c, r1)
		hi := a.(alloc.Inspector).Inspect()
		if hi.ReqBytes != 140 || hi.GrantedBytes != 176 {
			t.Errorf("req/granted = %d/%d, want 140/176", hi.ReqBytes, hi.GrantedBytes)
		}
		if len(hi.Arenas) != 1 {
			t.Fatalf("arenas = %d, want 1 (no contention, no arena growth)", len(hi.Arenas))
		}
		want := alloc.ArenaInfo{Name: "arena0", LiveBlocks: 2, LiveBytes: 144, FreeBlocks: 1, FreeBytes: 32}
		if hi.Arenas[0] != want {
			t.Errorf("arena0 = %+v, want %+v", hi.Arenas[0], want)
		}
		if hi.FreeBlocks != 1 || hi.FreeBytes != 32 || hi.LargestFree != 32 {
			t.Errorf("free state = %+v", hi)
		}
	})
}

// TestHoardOccupancy checks hoard's superblock-level occupancy
// counters: four allocations and two frees leave two blocks live in
// the owning thread heap, and the superblock's remaining 126 blocks
// (128-block superblocks of the 32-byte class) count as free.
func TestHoardOccupancy(t *testing.T) {
	runOn(t, "hoard", alloc.Options{}, nil, func(c *sim.Ctx, sp *mem.Space, a alloc.Allocator) {
		var refs []mem.Ref
		for i := 0; i < 4; i++ {
			refs = append(refs, a.Alloc(c, 20))
		}
		a.Free(c, refs[0])
		a.Free(c, refs[1])
		granted := a.Stats().GrantBytes / 4 // 32: the superblock class
		hi := a.(alloc.Inspector).Inspect()
		if hi.ReqBytes != 80 || hi.GrantedBytes != 4*granted {
			t.Errorf("req/granted = %d/%d, want 80/%d", hi.ReqBytes, hi.GrantedBytes, 4*granted)
		}
		if hi.FreeBlocks != 126 || hi.FreeBytes != 126*granted || hi.LargestFree != granted {
			t.Errorf("free state = %+v, want 126 free blocks of %d", hi, granted)
		}
		if len(hi.Arenas) < 2 || hi.Arenas[0].Name != "global" {
			t.Fatalf("arenas = %+v, want global + per-thread heaps", hi.Arenas)
		}
		var live int64
		for _, ar := range hi.Arenas {
			live += ar.LiveBlocks
		}
		if live != 2 {
			t.Errorf("live blocks across heaps = %d, want 2", live)
		}
	})
}

// obsCounter tallies events and their Arg1 byte payloads per kind.
type obsCounter struct {
	counts map[sim.EventKind]int64
	bytes  map[sim.EventKind]int64
}

func newObsCounter() *obsCounter {
	return &obsCounter{counts: map[sim.EventKind]int64{}, bytes: map[sim.EventKind]int64{}}
}

func (o *obsCounter) Event(e sim.Event) {
	o.counts[e.Kind]++
	o.bytes[e.Kind] += e.Arg1
}

// TestPoolDepthAndHitCounts hand-counts the pool introspection of a
// miss/hit scenario: 3 misses fill the pool and 2 hits drain it.
func TestPoolDepthAndHitCounts(t *testing.T) {
	obs := newObsCounter()
	e := sim.New(sim.Config{Processors: 2, Tracer: obs})
	sp := mem.NewSpace()
	under, err := alloc.New("serial", e, sp, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := pool.NewRuntime(e, under, pool.Config{Shards: 1, SingleThreaded: true})
	p := rt.NewClassPool("Node", 48)
	e.Go("t0", func(c *sim.Ctx) {
		var refs []mem.Ref
		for i := 0; i < 3; i++ { // 3 misses
			r, reused := p.Alloc(c)
			if reused {
				t.Error("fresh pool reported reuse")
			}
			refs = append(refs, r)
		}
		for _, r := range refs { // retain 3
			p.Free(c, r)
		}
		for i := 0; i < 2; i++ { // 2 hits
			if _, reused := p.Alloc(c); !reused {
				t.Error("pooled structure not reused")
			}
		}
		infos := rt.Inspect()
		if len(infos) != 1 {
			t.Fatalf("pools = %d, want 1", len(infos))
		}
		pi := infos[0]
		if pi.Hits != 2 || pi.Misses != 3 || pi.Retained != 1 || pi.RetainedBytes != 48 {
			t.Errorf("pool info = %+v, want 2 hits / 3 misses / 1 retained (48 B)", pi)
		}
		if !reflect.DeepEqual(pi.ShardDepths, []int64{1}) {
			t.Errorf("shard depths = %v, want [1]", pi.ShardDepths)
		}
	})
	e.Run()
	if obs.counts[sim.EvPoolMiss] != 3 || obs.counts[sim.EvPoolHit] != 2 {
		t.Errorf("tracer saw %d misses / %d hits, want 3/2",
			obs.counts[sim.EvPoolMiss], obs.counts[sim.EvPoolHit])
	}
}

// TestPoolMaxObjectsRelease: with MaxObjects 1, the second free of a
// full shard is a release, observed as such.
func TestPoolMaxObjectsRelease(t *testing.T) {
	obs := newObsCounter()
	e := sim.New(sim.Config{Processors: 2, Tracer: obs})
	sp := mem.NewSpace()
	under, err := alloc.New("serial", e, sp, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := pool.NewRuntime(e, under, pool.Config{Shards: 1, MaxObjects: 1, SingleThreaded: true})
	p := rt.NewClassPool("Node", 32)
	e.Go("t0", func(c *sim.Ctx) {
		r1, _ := p.Alloc(c)
		r2, _ := p.Alloc(c)
		if !p.Free(c, r1) {
			t.Error("first free should pool the structure")
		}
		if p.Free(c, r2) {
			t.Error("second free should release (shard at MaxObjects)")
		}
	})
	e.Run()
	if obs.counts[sim.EvPoolRelease] != 1 || obs.bytes[sim.EvPoolRelease] != 32 {
		t.Errorf("tracer saw %d releases (%d bytes), want 1 of 32 bytes",
			obs.counts[sim.EvPoolRelease], obs.bytes[sim.EvPoolRelease])
	}
}

// TestTimelineSamplingBoundaries checks the virtual-time sampling rule
// directly: a sample lands on the first event at or past each interval
// boundary, plus the Finish sample, and the export bytes are identical
// across two identical drives.
func TestTimelineSamplingBoundaries(t *testing.T) {
	drive := func() *heapobsv.Timeline {
		tl := &heapobsv.Timeline{Interval: 100}
		for _, now := range []int64{0, 50, 99, 150, 420, 430, 999} {
			tl.Event(sim.Event{Time: now, Kind: sim.EvHeapAlloc, Arg1: 16})
		}
		tl.Finish(1234)
		return tl
	}
	tl := drive()
	var nows []int64
	for _, s := range tl.Samples() {
		nows = append(nows, s.Now)
	}
	// 0 samples (next starts at 0) and arms next=100; 150 crosses it
	// (next=200); 420 crosses (next=500); 999 crosses (next=1000);
	// Finish records 1234 unconditionally.
	want := []int64{0, 150, 420, 999, 1234}
	if !reflect.DeepEqual(nows, want) {
		t.Fatalf("sample times = %v, want %v", nows, want)
	}
	if last := tl.Samples()[4]; last.Allocs != 7 {
		t.Errorf("final cumulative allocs = %d, want 7", last.Allocs)
	}

	other := drive()
	if !bytes.Equal(tl.JSONL(), other.JSONL()) || !bytes.Equal(tl.CSV(), other.CSV()) {
		t.Error("identical drives produced different export bytes")
	}
	lines := bytes.Count(tl.JSONL(), []byte("\n"))
	if lines != 5 {
		t.Errorf("JSONL lines = %d, want 5", lines)
	}
}

// TestSiteProfileHandCounted pins the folded export of a hand-built
// birth/death sequence.
func TestSiteProfileHandCounted(t *testing.T) {
	p := heapobsv.NewSiteProfile()
	for _, e := range []sim.Event{
		{Kind: sim.EvEnter, Detail: "main"},
		{Kind: sim.EvEnter, Detail: "build", Time: 10},
		{Kind: sim.EvAlloc, Detail: "Node", Site: "build@5(Node)", Arg1: 48, Arg2: 0x1000},
		{Kind: sim.EvBirth, Detail: "Node", Site: "build@5(Node)", Arg1: 48, Arg2: 0x2000},
		{Kind: sim.EvAlloc, Detail: "buffer", Site: "build@7", Arg1: 256, Arg2: 0x3000},
		{Kind: sim.EvAlloc, Detail: "Node", Arg1: 48, Arg2: 0x5000}, // no site: not attributed
		{Kind: sim.EvExit, Time: 20},
		{Kind: sim.EvDeath, Arg1: 0x2000},
		{Kind: sim.EvFree, Arg1: 0x9999}, // unknown ref: ignored
		{Kind: sim.EvBirth, Detail: "Node", Site: "main@12(Node)", Arg1: 48, Arg2: 0x4000},
	} {
		p.Event(e)
	}

	wantAlloc := "main;build;build@5(Node) 96\nmain;build;build@7 256\nmain;main@12(Node) 48\n"
	if got := p.Folded(heapobsv.MetricAllocBytes); got != wantAlloc {
		t.Errorf("Folded(alloc_bytes) =\n%q\nwant\n%q", got, wantAlloc)
	}
	wantLive := "main;build;build@5(Node) 1\nmain;build;build@7 1\nmain;main@12(Node) 1\n"
	if got := p.Folded(heapobsv.MetricInuseObjects); got != wantLive {
		t.Errorf("Folded(inuse_objects) =\n%q\nwant\n%q", got, wantLive)
	}
	if got := p.Folded(heapobsv.MetricPeakBytes); got != "main;build;build@5(Node) 96\nmain;build;build@7 256\nmain;main@12(Node) 48\n" {
		t.Errorf("Folded(peak_bytes) =\n%q", got)
	}
	allocObjs, allocBytes, liveObjs, liveBytes := p.Totals()
	if allocObjs != 4 || allocBytes != 400 || liveObjs != 3 || liveBytes != 352 {
		t.Errorf("Totals = %d/%d/%d/%d, want 4/400/3/352", allocObjs, allocBytes, liveObjs, liveBytes)
	}
}

// TestObservationDoesNotChangeMakespans is the acceptance property
// behind the whole layer: attaching the full observer stack to the
// tree workload, the BGw model and the VM changes no simulated number.
func TestObservationDoesNotChangeMakespans(t *testing.T) {
	treeCfg := workload.TreeConfig{Depth: 2, Trees: 60, Threads: 4}
	for _, strategy := range []string{"serial", "ptmalloc", "amplify"} {
		bare, err := workload.RunTree(strategy, treeCfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := treeCfg
		cfg.Tracer = &heapobsv.Timeline{Interval: 1000}
		observed, err := workload.RunTree(strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if observed.Makespan != bare.Makespan {
			t.Errorf("%s tree: observed makespan %d != bare %d", strategy, observed.Makespan, bare.Makespan)
		}
		if observed.Alloc != bare.Alloc || observed.Sim != bare.Sim {
			t.Errorf("%s tree: observation changed counters", strategy)
		}
	}

	bgwCfg := bgw.Config{CDRs: 80, Threads: 2, Strategy: "smartheap", Amplify: true}
	bareBGw, err := bgw.Run(bgwCfg)
	if err != nil {
		t.Fatal(err)
	}
	bgwCfg.Tracer = &heapobsv.Timeline{Interval: 1000}
	obsBGw, err := bgw.Run(bgwCfg)
	if err != nil {
		t.Fatal(err)
	}
	if obsBGw.Makespan != bareBGw.Makespan {
		t.Errorf("bgw: observed makespan %d != bare %d", obsBGw.Makespan, bareBGw.Makespan)
	}

	const prog = `
class Node {
public:
    Node(int d) {
        if (d > 0) { left = new Node(d - 1); }
    }
    ~Node() { delete left; }
private:
    Node* left;
};
int main() {
    for (int i = 0; i < 20; i = i + 1) {
        Node* n = new Node(4);
        delete n;
    }
    return 0;
}
`
	bareVM, err := runVM(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	obsVM, err := runVM(prog, vm.Config{
		Tracer: sim.NewTee(&heapobsv.Timeline{Interval: 1000}, heapobsv.NewSiteProfile()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if obsVM.Makespan != bareVM.Makespan || obsVM.Sim != bareVM.Sim {
		t.Errorf("vm: observation changed makespan %d -> %d", bareVM.Makespan, obsVM.Makespan)
	}
}
