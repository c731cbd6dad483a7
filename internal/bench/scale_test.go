package bench

import "testing"

// The scale cells must be deterministic and must land in the report's
// Makespans map like every other cell; this exercises the smallest
// full-mode cell so the test stays fast.
func TestScaleCellDeterministic(t *testing.T) {
	c := scaleGridCell(scalePoint{8, 1000})
	a := NewRunner(false)
	c1, err := a.cells.do(c)
	if err != nil {
		t.Fatal(err)
	}
	b := NewRunner(false)
	c2, err := b.cells.do(c)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Makespan != c2.Makespan {
		t.Fatalf("scale cell not deterministic: %d vs %d", c1.Makespan, c2.Makespan)
	}
	if c1.Makespan <= 0 {
		t.Fatalf("makespan = %d, want > 0", c1.Makespan)
	}
	if ev := scaleEvents(c1.Sim); ev <= 0 {
		t.Fatalf("scaleEvents = %d, want > 0", ev)
	}
	ms := a.Makespans()
	if _, ok := ms[c.key]; !ok {
		t.Fatalf("scale cell missing from Makespans: %v", ms)
	}
}
