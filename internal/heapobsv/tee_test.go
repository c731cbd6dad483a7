package heapobsv_test

import (
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/heapobsv"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
)

// poolScenario runs a one-thread pool run under tr (3 misses, 3
// frees, 2 hits; one structure stays retained), attaching the run to
// tr's Watchers the way every runner does, and returns its makespan.
func poolScenario(t *testing.T, tr sim.Tracer) int64 {
	t.Helper()
	e := sim.New(sim.Config{Processors: 2, Tracer: tr})
	sp := mem.NewSpace()
	under, err := alloc.New("serial", e, sp, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := pool.NewRuntime(e, under, pool.Config{Shards: 1, SingleThreaded: true})
	pool.Watch(tr, sp, under, rt)
	p := rt.NewClassPool("Node", 48)
	e.Go("t0", func(c *sim.Ctx) {
		var refs []mem.Ref
		for i := 0; i < 3; i++ {
			r, _ := p.Alloc(c)
			refs = append(refs, r)
		}
		for _, r := range refs {
			p.Free(c, r)
		}
		for i := 0; i < 2; i++ {
			p.Alloc(c)
		}
	})
	return e.Run()
}

// TestMultiZeroObserversAndNilChildren: composing heap observers
// through sim.NewTee tolerates zero observers and nil children — typed
// nil consumers included — on both the event path and the pool.Watch
// gauge path, and the live child sees every event and its Watch.
func TestMultiZeroObserversAndNilChildren(t *testing.T) {
	// Zero observers: the detached path, not a panic.
	if tr := sim.NewTee(); tr != nil {
		t.Fatalf("empty tee = %v, want nil", tr)
	}
	bare := poolScenario(t, sim.NewTee())

	var nilTL *heapobsv.Timeline
	var nilProf *heapobsv.SiteProfile
	tl := &heapobsv.Timeline{Interval: 1 << 40}
	tr := sim.NewTee(nil, nilTL, heapobsv.NewSiteProfile(), tl, nilProf)
	if got := poolScenario(t, tr); got != bare {
		t.Errorf("observed makespan %d, want the unobserved %d", got, bare)
	}
	tl.Finish(bare)
	s := tl.Samples()
	if len(s) != 2 {
		t.Fatalf("samples = %+v, want the first event's and the final one", s)
	}
	last := s[1]
	if last.PoolMisses != 3 || last.PoolHits != 2 {
		t.Errorf("live child saw %d misses / %d hits, want 3/2", last.PoolMisses, last.PoolHits)
	}
	// Watch reached the live child: the gauges read the run's state.
	if last.Footprint == 0 || last.LiveBytes == 0 || last.PoolRetained != 1 || last.PoolRetainedBytes != 48 {
		t.Errorf("live child's Watch not forwarded: %+v", last)
	}
}

// TestProfTeeNilAndEmpty: the VM's site events reach every site
// profile composed in one tee exactly once, nil entries skipped, and
// a tee of nothing but nil profiles is the detached nil tracer.
func TestProfTeeNilAndEmpty(t *testing.T) {
	site := []sim.Event{
		{Thread: 1, Time: 10, Kind: sim.EvEnter, Detail: "worker"},
		{Thread: 1, Kind: sim.EvBirth, Detail: "Node", Site: "worker@3(Node)", Arg1: 24, Arg2: 0x20},
		{Thread: 1, Kind: sim.EvBirth, Detail: "Node", Site: "worker@3(Node)", Arg1: 24, Arg2: 0x40},
		{Thread: 1, Kind: sim.EvDeath, Arg1: 0x20},
		{Thread: 1, Time: 20, Kind: sim.EvExit},
	}
	if tr := sim.NewTee(nil, (*heapobsv.SiteProfile)(nil)); tr != nil {
		t.Fatalf("tee of nil profiles = %v, want nil", tr)
	}

	var nilProf *heapobsv.SiteProfile
	a, b := heapobsv.NewSiteProfile(), heapobsv.NewSiteProfile()
	tr := sim.NewTee(a, nil, nilProf, b)
	for _, e := range site {
		tr.Event(e)
	}
	for i, p := range []*heapobsv.SiteProfile{a, b} {
		allocObjs, allocBytes, liveObjs, liveBytes := p.Totals()
		if allocObjs != 2 || allocBytes != 48 || liveObjs != 1 || liveBytes != 24 {
			t.Errorf("consumer %d totals %d/%d/%d/%d, want 2/48/1/24", i, allocObjs, allocBytes, liveObjs, liveBytes)
		}
		if got := p.Folded(heapobsv.MetricAllocObjects); got != "worker;worker@3(Node) 2\n" {
			t.Errorf("consumer %d folded %q", i, got)
		}
	}
}
