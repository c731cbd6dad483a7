package heapobsv

import "testing"

func TestDiffTimelines(t *testing.T) {
	oldTL := []Sample{{Now: 0}, {Now: 100, Footprint: 1 << 12, PoolMisses: 4, Allocs: 100}}
	newTL := []Sample{{Now: 0}, {Now: 100, Footprint: 1 << 14, PoolMisses: 400, Allocs: 100}}
	ds := DiffTimelines(oldTL, newTL, 0)
	if len(ds) != 2 {
		t.Fatalf("deltas = %+v", ds)
	}
	if ds[0].Key != "footprint" || ds[0].Delta != (1<<14)-(1<<12) {
		t.Errorf("top delta = %+v", ds[0])
	}
	if ds[1].Key != "pool_misses" || ds[1].Delta != 396 {
		t.Errorf("second delta = %+v", ds[1])
	}
	if got := DiffTimelines(nil, newTL, 0); len(got) == 0 {
		t.Error("empty-old diff lost the new side")
	}
	if got := DiffTimelines(nil, nil, 0); got != nil {
		t.Errorf("empty diff produced %+v", got)
	}
}
