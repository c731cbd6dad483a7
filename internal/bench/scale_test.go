package bench

import "testing"

// The scale cells must be deterministic and must land in the report's
// Makespans map like every other cell; this exercises the smallest
// full-mode cell so the test stays fast.
func TestScaleCellDeterministic(t *testing.T) {
	a := NewRunner(false)
	c1, err := a.runScale(8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b := NewRunner(false)
	c2, err := b.runScale(8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Res.Makespan != c2.Res.Makespan {
		t.Fatalf("scale cell not deterministic: %d vs %d", c1.Res.Makespan, c2.Res.Makespan)
	}
	if c1.Res.Makespan <= 0 {
		t.Fatalf("makespan = %d, want > 0", c1.Res.Makespan)
	}
	if ev := scaleEvents(c1.Res); ev <= 0 {
		t.Fatalf("scaleEvents = %d, want > 0", ev)
	}
	ms := a.Makespans()
	if _, ok := ms[scaleKey(8, 1000)]; !ok {
		t.Fatalf("scale cell missing from Makespans: %v", ms)
	}
}
