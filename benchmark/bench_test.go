package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declaredMetric        `json:"end_to_end"`
	PerLayer  []declaredMetric        `json:"per_layer"`
}

type declaredMetric struct {
	Name, Unit, Better string
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// hostMeasured reports whether a metric comes from the host clock or
// memory rather than from a simulation or a deterministic count.
func hostMeasured(d metricDef) bool {
	switch d.unit {
	case "s", "ms", "ns", "cal", "ops/s", "ops/cal", "KB/s", "MB/s", "MiB":
		return true
	}
	return strings.HasPrefix(d.name, "trace.") || d.name == "bench.ops"
}

// TestWorkloads runs every workload on its tiny op list, untraced and
// traced, twice each, and checks the printed metrics against
// BENCHMARK.json.
func TestWorkloads(t *testing.T) {
	t.Chdir("..") // the benchmark runs from the repository root
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, workloadNames())
	}
	checkDecl(t, "end_to_end", decl.EndToEnd, endToEnd)
	checkDecl(t, "per_layer", decl.PerLayer, perLayer)

	dir := t.TempDir()
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 1, trace: traced, traceDir: dir, small: true}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var reps [2]report
			for i := range reps {
				rep, _, err := run(o, io.Discard)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w, traced, err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed", w, traced, rep.Correct, rep.Failed, rep.Attempted)
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d", w, traced, len(rep.Metrics), len(defs))
				}
				reps[i] = rep
			}
			for _, d := range defs {
				a, ok := reps[0].Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: %s not printed", w, traced, d.name)
					continue
				}
				if a.Unit != d.unit {
					t.Errorf("%s: printed unit %q, declared %q", d.name, a.Unit, d.unit)
				}
				if b := reps[1].Metrics[d.name]; !hostMeasured(d) && a.Value != b.Value {
					t.Errorf("%s trace=%v: exact metric %s differs between runs: %v vs %v", w, traced, d.name, a.Value, b.Value)
				}
			}
		}
	}
	for _, f := range []string{"thread-storm.spans.jsonl", "thread-storm.chrome.json"} {
		if st, err := os.Stat(dir + "/" + f); err != nil || st.Size() == 0 {
			t.Errorf("traced run did not write %s: %v", f, err)
		}
	}
}

// checkDecl holds the printed metric declarations and BENCHMARK.json
// together: same names in the same order, units and directions.
func checkDecl(t *testing.T, section string, got []declaredMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", section, len(got), len(want))
	}
	seen := map[string]bool{}
	for i, d := range want {
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("%s: bad or repeated metric name %q", section, d.name)
		}
		seen[d.name] = true
		if i < len(got) && (got[i] != declaredMetric{d.name, d.unit, d.better}) {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", section, i, got[i], d)
		}
	}
}

// TestFailuresAreCounted checks that a returned error, a result that
// changes between runs and an amplified output that differs from its
// plain twin each count as failed ops.
func TestFailuresAreCounted(t *testing.T) {
	makespan := int64(0)
	result := func(out string) func(exec) (outcome, error) {
		return func(exec) (outcome, error) {
			makespan++
			var o outcome
			o.add(simRun{makespan: makespan})
			o.output = out
			return o, nil
		}
	}
	b := &bench{
		ops: []op{
			{name: "error", twin: -1, run: func(exec) (outcome, error) { return outcome{}, errors.New("boom") }},
			{name: "plain", twin: -1, run: result("a")},
			{name: "amplified", twin: 1, run: result("b")},
		},
		first: make([]*outcome, 3),
		execs: make([]int, 3),
		log:   io.Discard,
	}
	b.do(0, exec{})
	b.do(1, exec{})
	b.do(1, exec{}) // a different makespan than its first run
	b.do(2, exec{})
	b.checkTwins()
	if b.attempted != 4 || b.failed != 3 {
		t.Fatalf("attempted %d, failed %d; want 4 and 3", b.attempted, b.failed)
	}
}
