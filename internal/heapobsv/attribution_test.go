package heapobsv_test

import (
	"bytes"
	"strings"
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/alloctrace"
	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/heapobsv"
	"amplify/internal/obsv"
	"amplify/internal/sim"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

// runVM parses, analyzes, compiles and runs src on the VM.
func runVM(src string, cfg vm.Config) (vm.Result, error) {
	p, err := vm.Compile(cc.MustAnalyze(cc.MustParse(src)))
	if err != nil {
		return vm.Result{}, err
	}
	return vm.Run(p, cfg)
}

// attributionProg allocates from several sites across several threads
// so site attribution, the shadow stack and the trace recorder all have
// work to do.
const attributionProg = `
class Node {
public:
    Node(int d) {
        if (d > 0) { left = new Node(d - 1); right = new Node(d - 1); }
    }
    ~Node() { delete left; delete right; }
private:
    Node* left;
    Node* right;
};

void worker(int id) {
    for (int i = 0; i < 8; i = i + 1) {
        Node* n = new Node(3);
        delete n;
    }
}

int main() {
    spawn worker(1);
    spawn worker(2);
    join;
    Node* keep = new Node(2);
    return 0;
}
`

// TestVMSiteAttribution runs the VM with the cycle profiler, the
// allocation-site profile and the trace recorder attached together and
// requires every artifact to attribute: worker-thread allocations land
// at the Node constructor's site with the class annotation, in the
// site profile and in the decoded trace alike.
func TestVMSiteAttribution(t *testing.T) {
	prof := obsv.NewProfiler()
	sites := heapobsv.NewSiteProfile()
	rec := alloctrace.NewRecorder("attribution")
	res, err := runVM(attributionProg, vm.Config{Tracer: sim.NewTee(prof, sites, rec)})
	if err != nil {
		t.Fatal(err)
	}
	prof.Finish(res.Makespan)
	if err := rec.Trace().Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}

	if folded := sites.Folded(heapobsv.MetricAllocBytes); !strings.Contains(folded, "(Node)") {
		t.Errorf("site profile has no Node attribution:\n%s", folded)
	}
	if cycles := prof.Folded(); !strings.Contains(cycles, "worker") {
		t.Errorf("cycle profile never entered worker:\n%s", cycles)
	}
	tr, err := alloctrace.Decode(rec.Trace().Encode())
	if err != nil {
		t.Fatal(err)
	}
	attributed := false
	for _, s := range tr.Sites {
		if strings.Contains(s, "(Node)") {
			attributed = true
		}
	}
	if !attributed {
		t.Errorf("trace sites carry no MiniCC attribution: %v", tr.Sites)
	}
	if st := tr.Stats(); st.Leaked == 0 {
		t.Error("trace missed the leaked Node tree")
	}
}

// consumer puts one fresh event-stream consumer into its slot of an
// observation set, closes it by hand as a caller without the set would,
// and renders everything it observed as bytes.
type consumer struct {
	name   string
	attach func(s *obsv.Set) sim.Tracer
	finish func(s *obsv.Set, makespan int64)
	render func(s *obsv.Set) []byte
}

var consumers = []consumer{
	{"sim.Recorder",
		func(s *obsv.Set) sim.Tracer { s.Events = &sim.Recorder{Max: 1 << 20}; return s.Events },
		func(*obsv.Set, int64) {},
		func(s *obsv.Set) []byte {
			jl, err := obsv.JSONL(s.Events.Snapshot())
			if err != nil {
				panic(err)
			}
			return append(jl, obsv.FormatLockProfile(obsv.LockProfile(s.Events.Snapshot()))...)
		}},
	{"obsv.Profiler",
		func(s *obsv.Set) sim.Tracer { s.Profile = obsv.NewProfiler(); return s.Profile },
		func(s *obsv.Set, makespan int64) { s.Profile.Finish(makespan) },
		func(s *obsv.Set) []byte { return []byte(s.Profile.Folded()) }},
	{"heapobsv.Timeline",
		func(s *obsv.Set) sim.Tracer { s.Heap = &heapobsv.Timeline{Interval: 2000}; return s.Heap },
		func(s *obsv.Set, makespan int64) { s.Heap.Finish(makespan) },
		func(s *obsv.Set) []byte { return s.Heap.JSONL() }},
	{"heapobsv.SiteProfile",
		func(s *obsv.Set) sim.Tracer { s.Sites = heapobsv.NewSiteProfile(); return s.Sites },
		func(*obsv.Set, int64) {},
		func(s *obsv.Set) []byte { return []byte(s.Sites.Folded(heapobsv.MetricAllocBytes) + s.Sites.Table()) }},
	{"alloctrace.Recorder",
		func(s *obsv.Set) sim.Tracer { s.Allocs = alloctrace.NewRecorder("composed"); return s.Allocs },
		func(*obsv.Set, int64) {},
		func(s *obsv.Set) []byte { return s.Allocs.Trace().Encode() }},
}

// observedRun is one simulated run with a tracer attached, reporting
// the numbers observation must never move.
type observedRun func(tr sim.Tracer) (makespan int64, st sim.Stats, al alloc.Stats)

// TestComposedConsumersChangeNothing: every consumer of the event
// stream produces byte-identical output whether it is attached alone
// and closed by hand, or composed with all the others in one obsv.Set
// and closed by its Finish, and neither way changes the makespan, the
// simulator's statistics or the allocator's counters of the unobserved
// run.
func TestComposedConsumersChangeNothing(t *testing.T) {
	amplified, _, err := core.Rewrite(attributionProg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vmRun := func(src string) observedRun {
		return func(tr sim.Tracer) (int64, sim.Stats, alloc.Stats) {
			res, err := runVM(src, vm.Config{Strategy: "ptmalloc", Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Makespan, res.Sim, res.Alloc
		}
	}
	runs := map[string]observedRun{
		"vm/plain":     vmRun(attributionProg),
		"vm/amplified": vmRun(amplified),
		"tree/amplify": func(tr sim.Tracer) (int64, sim.Stats, alloc.Stats) {
			res, err := workload.RunTree("amplify", workload.TreeConfig{Depth: 2, Trees: 60, Threads: 4, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res.Makespan, res.Sim, res.Alloc
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			bareMakespan, bareSim, bareAlloc := run(nil)
			check := func(how string, makespan int64, st sim.Stats, al alloc.Stats) {
				if makespan != bareMakespan || st != bareSim || al != bareAlloc {
					t.Errorf("%s: observation changed simulated results (makespan %d, unobserved %d)",
						how, makespan, bareMakespan)
				}
			}
			alone := make([][]byte, len(consumers))
			for i, c := range consumers {
				s := &obsv.Set{}
				makespan, st, al := run(c.attach(s))
				check(c.name+" alone", makespan, st, al)
				c.finish(s, makespan)
				alone[i] = c.render(s)
			}
			all := &obsv.Set{}
			for _, c := range consumers {
				c.attach(all)
			}
			makespan, st, al := run(all.Tracer())
			check("all composed", makespan, st, al)
			all.Finish(makespan)
			for i, c := range consumers {
				if len(alone[i]) == 0 {
					t.Errorf("%s produced no output", c.name)
				}
				if got := c.render(all); !bytes.Equal(got, alone[i]) {
					t.Errorf("%s: composed output differs from solo (%d vs %d bytes)", c.name, len(got), len(alone[i]))
				}
			}
		})
	}
}
