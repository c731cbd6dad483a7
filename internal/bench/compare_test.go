package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func baselineReport() *Report {
	return &Report{
		Schema: ReportSchema,
		Makespans: map[string]int64{
			"tree/serial/depth1/threads1/procs8":  10_000,
			"tree/amplify/depth1/threads4/procs8": 3_000,
			"bgw/smartheap/amplify/threads2":      50_000,
		},
		Heap: map[string]HeapCell{
			"tree/serial/depth1/threads1/procs8":  {Footprint: 1 << 20, PeakBytes: 1 << 18, IntFragBP: 900, ExtFragBP: 0},
			"tree/amplify/depth1/threads4/procs8": {Footprint: 2 << 20, PeakBytes: 1 << 19, IntFragBP: 1200, ExtFragBP: 300},
		},
	}
}

// clone deep-copies a report's maps so tests can seed drift.
func clone(r *Report) *Report {
	c := *r
	c.Makespans = make(map[string]int64, len(r.Makespans))
	for k, v := range r.Makespans {
		c.Makespans[k] = v
	}
	c.Heap = make(map[string]HeapCell, len(r.Heap))
	for k, v := range r.Heap {
		c.Heap[k] = v
	}
	return &c
}

// TestCompareDetectsSeededRegression is the acceptance test for the
// diffing satellite: seed a makespan regression, a footprint
// regression and a fragmentation regression and check each is caught,
// classified and fails the comparison.
func TestCompareDetectsSeededRegression(t *testing.T) {
	base := baselineReport()
	cur := clone(base)
	cur.Makespans["tree/serial/depth1/threads1/procs8"] = 10_500 // +5%
	cell := cur.Heap["tree/amplify/depth1/threads4/procs8"]
	cell.Footprint *= 2   // +100%
	cell.ExtFragBP += 250 // +250bp
	cur.Heap["tree/amplify/depth1/threads4/procs8"] = cell

	cmp, err := Compare(base, cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Regressed() {
		t.Fatal("seeded regressions not detected")
	}
	if len(cmp.Regressions) != 3 {
		t.Fatalf("regressions = %v, want 3", cmp.Regressions)
	}
	text := cmp.Format()
	for _, want := range []string{
		"makespan tree/serial/depth1/threads1/procs8: 10000 -> 10500 (+5.00%)",
		"footprint tree/amplify/depth1/threads4/procs8",
		"ext_frag_bp tree/amplify/depth1/threads4/procs8: 300 -> 550 (+250bp)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("diff missing %q:\n%s", want, text)
		}
	}

	// A threshold above every seeded drift turns them into notes.
	cmp, err = Compare(base, cur, 110)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressed() {
		t.Fatalf("threshold 110%% still regressed: %v", cmp.Regressions)
	}
	if len(cmp.Notes) != 3 {
		t.Errorf("notes = %v, want the 3 sub-threshold drifts", cmp.Notes)
	}
}

// TestCompareIdenticalAndImproved: identical reports diff clean, and
// lower numbers are improvements, never regressions.
func TestCompareIdenticalAndImproved(t *testing.T) {
	base := baselineReport()
	cmp, err := Compare(base, clone(base), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressed() || len(cmp.Improvements) != 0 || cmp.Common != 3 {
		t.Fatalf("identical reports: %+v", cmp)
	}

	cur := clone(base)
	cur.Makespans["bgw/smartheap/amplify/threads2"] = 40_000
	cell := cur.Heap["tree/serial/depth1/threads1/procs8"]
	cell.Footprint /= 2
	cur.Heap["tree/serial/depth1/threads1/procs8"] = cell
	cmp, err = Compare(base, cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressed() {
		t.Fatalf("improvements flagged as regressions: %v", cmp.Regressions)
	}
	if len(cmp.Improvements) != 2 {
		t.Errorf("improvements = %v, want 2", cmp.Improvements)
	}
}

// TestCompareToleratesOldSchemaAndSubset: a v2 baseline (no heap map)
// and a quick run covering a subset of cells both diff cleanly over
// the overlap; disjoint or alien reports are errors.
func TestCompareToleratesOldSchemaAndSubset(t *testing.T) {
	base := baselineReport()
	base.Schema = "amplify-bench/2"
	base.Heap = nil
	cur := clone(baselineReport())
	delete(cur.Makespans, "bgw/smartheap/amplify/threads2")
	cur.Makespans["pipe/smartheap/amplifytrue/stealtrue/workers4"] = 777

	cmp, err := Compare(base, cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressed() {
		t.Fatalf("schema/subset tolerance failed: %v", cmp.Regressions)
	}
	if cmp.Common != 2 || cmp.OnlyOld != 1 || cmp.OnlyNew != 1 {
		t.Errorf("overlap = %d common / %d old-only / %d new-only, want 2/1/1",
			cmp.Common, cmp.OnlyOld, cmp.OnlyNew)
	}
	if !strings.Contains(cmp.Format(), "schema skew") {
		t.Error("schema skew not noted")
	}

	if _, err := Compare(&Report{Schema: "something-else/1"}, cur, 0); err == nil {
		t.Error("alien schema accepted")
	}
	if _, err := Compare(base, cur, -1); err == nil {
		t.Error("negative threshold accepted")
	}

	disjoint := &Report{Schema: ReportSchema, Makespans: map[string]int64{"other/cell": 1}}
	cmp, err = Compare(base, disjoint, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Regressed() {
		t.Error("disjoint reports passed vacuously")
	}
}

// TestCompareZeroBaseline: a metric appearing from a zero baseline
// exceeds any relative threshold rather than dividing by zero.
func TestCompareZeroBaseline(t *testing.T) {
	base := &Report{Schema: ReportSchema, Makespans: map[string]int64{"cell/a": 0}}
	cur := &Report{Schema: ReportSchema, Makespans: map[string]int64{"cell/a": 5}}
	cmp, err := Compare(base, cur, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Regressed() {
		t.Error("growth from zero baseline not flagged")
	}
}

// TestCompareOutputPinned pins the -compare text for both report
// kinds: the committed simulated baseline against a perturbed copy
// (regressions, improvements, sub-threshold drift, cells on one side
// only) and the committed host baseline against a perturbed copy.
func TestCompareOutputPinned(t *testing.T) {
	cur := loadBaseline(t)
	old := deflated(t, cur, []string{"tree/amplify/depth3/threads8/procs8", "replay/handoff/hoard"})
	old.Makespans["contend/serial/p8/threads8"] += 1000
	old.Makespans["fig99/gone"] = 5
	delete(old.Makespans, "e2e/serial/threads1")
	h := old.Heap["escape/builder/classic"]
	h.IntFragBP += 40
	h.ExtFragBP -= 7
	h.PeakBytes *= 2
	old.Heap["escape/builder/classic"] = h
	c, err := Compare(old, cur, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "compare.txt", c.Format())

	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_host.json"))
	if err != nil {
		t.Fatal(err)
	}
	var hostOld, hostCur HostReport
	if err := json.Unmarshal(raw, &hostOld); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &hostCur); err != nil {
		t.Fatal(err)
	}
	hostCur.GoVersion = "go1.99"
	hostCur.Benchmarks[0].NsPerOp *= 3
	hostCur.Benchmarks[1].NsPerOp /= 2
	hostCur.Benchmarks[2].AllocsPerOp++
	hostCur.Benchmarks[3].NsPerOp += hostCur.Benchmarks[3].NsPerOp / 10
	hostCur.Benchmarks = append(hostCur.Benchmarks[:5], HostBenchmark{Name: "vm/new_row", NsPerOp: 7, AllocsPerOp: 1})
	hc, err := CompareHost(&hostOld, &hostCur, 50)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "compare-host.txt", hc.Format())
}

// TestCompareHostGatesAllocsTightly checks that CompareHost holds
// allocs_per_op to allocsTolerancePct whatever its threshold, while
// ns_per_op keeps the threshold: at 300%, the CI setting, 20 more
// allocations in 1,000 fail and 5 pass, while ns_per_op may quadruple;
// under a threshold tighter than the tolerance, allocations get that
// threshold.
func TestCompareHostGatesAllocsTightly(t *testing.T) {
	report := func(ns, allocs int64) *HostReport {
		return &HostReport{Schema: HostBenchSchema, Benchmarks: []HostBenchmark{{Name: "row", NsPerOp: ns, AllocsPerOp: allocs}}}
	}
	for _, tc := range []struct {
		threshold   float64
		ns, allocs  int64
		wantRegress bool
	}{
		{300, 100, 1005, false},
		{300, 100, 1020, true},
		{300, 400, 1000, false},
		{300, 401, 1000, true},
		{0.25, 100, 1002, false},
		{0.25, 100, 1005, true},
	} {
		c, err := CompareHost(report(100, 1000), report(tc.ns, tc.allocs), tc.threshold)
		if err != nil {
			t.Fatal(err)
		}
		if c.Regressed() != tc.wantRegress {
			t.Errorf("threshold %g%%, 100 ns and 1000 allocs -> %d ns and %d allocs: regressed=%v, want %v\n%s",
				tc.threshold, tc.ns, tc.allocs, c.Regressed(), tc.wantRegress, c.Format())
		}
	}
}
