package bench

import (
	"strings"
	"testing"
)

// contendTestRunner shrinks the grid so the harness tests stay fast;
// the full-size cells are covered by the committed BENCH trajectory.
func contendTestRunner() *Runner {
	r := NewRunner(true)
	r.contendGridOverride = []contendPoint{{8, 8}, {8, 32}}
	return r
}

// TestContendCellDeterministic: same cell, fresh runners, identical
// simulated results, and the cell lands in Makespans/HeapCells.
func TestContendCellDeterministic(t *testing.T) {
	a := contendTestRunner()
	c := a.contendCell("lfalloc", contendPoint{8, 32})
	r1, err := a.cells.do(c)
	if err != nil {
		t.Fatal(err)
	}
	b := contendTestRunner()
	r2, err := b.cells.do(b.contendCell("lfalloc", contendPoint{8, 32}))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan || r1.Sim != r2.Sim {
		t.Fatalf("contend cell not deterministic:\n%+v\n%+v", r1.Sim, r2.Sim)
	}
	if r1.Sim.AtomicCAS == 0 {
		t.Error("lfalloc contend cell recorded no CAS operations")
	}
	key := c.key
	if _, ok := a.Makespans()[key]; !ok {
		t.Errorf("cell %s missing from Makespans", key)
	}
	if _, ok := a.HeapCells()[key]; !ok {
		t.Errorf("cell %s missing from HeapCells", key)
	}
}

// TestContendParallelMatchesSequential: the rendered grid must be
// byte-identical whether the memo was warmed by one worker or eight.
func TestContendParallelMatchesSequential(t *testing.T) {
	seq := contendTestRunner()
	seq.Jobs = 1
	par := contendTestRunner()
	par.Jobs = 8
	if err := par.Precompute([]string{"contend"}); err != nil {
		t.Fatal(err)
	}
	want, err := seq.Run("contend")
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Run("contend")
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Errorf("contend differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", want, got)
	}
	for _, s := range []string{"serial", "ptmalloc", "hoard", "lfalloc"} {
		if !strings.Contains(want, s) {
			t.Errorf("contend table missing strategy %s:\n%s", s, want)
		}
	}
}

// TestContendReport: the contend experiment lands in the v6 report
// with its cells and the atomic-operation counters in Metrics.
func TestContendReport(t *testing.T) {
	r := contendTestRunner()
	rep, err := r.Report([]string{"contend"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "amplify-bench/7" {
		t.Errorf("schema = %q, want amplify-bench/7", rep.Schema)
	}
	var contendCells int
	for k := range rep.Makespans {
		if strings.HasPrefix(k, "contend/") {
			contendCells++
		}
	}
	if want := 2 * 4; contendCells != want {
		t.Errorf("contend cells in Makespans = %d, want %d", contendCells, want)
	}
	for _, name := range []string{"sim.atomic.cas", "sim.atomic.loads", "cells.contend", "alloc.allocs"} {
		if rep.Metrics[name] <= 0 {
			t.Errorf("metric %s = %d, want > 0", name, rep.Metrics[name])
		}
	}
	if rep.Metrics["sim.atomic.cas_failed"] > rep.Metrics["sim.atomic.cas"] {
		t.Error("more failed CAS than CAS attempts")
	}
	if hh := rep.Experiments[0].Heap; hh == nil || hh.PeakFootprint <= 0 {
		t.Errorf("contend experiment missing heap headline: %+v", hh)
	}
}

// TestContendAllocFilter: -alloc narrows the roster without touching
// the grid, and the default roster is the four-way comparison.
func TestContendAllocFilter(t *testing.T) {
	r := contendTestRunner()
	r.ContendAllocs = []string{"lfalloc"}
	out, err := r.Contend()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "ptmalloc") || !strings.Contains(out, "lfalloc") {
		t.Errorf("alloc filter not honored:\n%s", out)
	}
	if got := r.cells.len(); got != 2 {
		t.Errorf("filtered run computed %d cells, want 2", got)
	}
}
