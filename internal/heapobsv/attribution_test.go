package heapobsv_test

import (
	"bytes"
	"strings"
	"testing"

	"amplify/internal/alloctrace"
	"amplify/internal/heapobsv"
	"amplify/internal/obsv"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

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
	res, err := vm.RunSource(attributionProg, vm.Config{
		Profiler:     prof,
		HeapObserver: rec,
		HeapProf:     heapobsv.ProfTee{sites, rec},
	})
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

// TestMultiFansOutAndChangesNothing checks the Multi observer: a
// timeline and a trace recorder attached together each see exactly
// what they would alone, and observation still charges nothing.
func TestMultiFansOutAndChangesNothing(t *testing.T) {
	cfg := workload.ChurnConfig{Threads: 4, OpsPerThread: 50, Size: 48}

	bare, err := workload.RunChurn("ptmalloc", cfg)
	if err != nil {
		t.Fatal(err)
	}

	soloRec := alloctrace.NewRecorder("churn")
	soloCfg := cfg
	soloCfg.HeapObserver = soloRec
	if _, err := workload.RunChurn("ptmalloc", soloCfg); err != nil {
		t.Fatal(err)
	}

	rec := alloctrace.NewRecorder("churn")
	tl := &heapobsv.Timeline{Interval: 1000}
	multiCfg := cfg
	multiCfg.HeapObserver = heapobsv.Multi{tl, rec}
	multi, err := workload.RunChurn("ptmalloc", multiCfg)
	if err != nil {
		t.Fatal(err)
	}

	if multi.Makespan != bare.Makespan || multi.Sim != bare.Sim || multi.Alloc != bare.Alloc {
		t.Error("Multi observation changed simulated results")
	}
	if !bytes.Equal(rec.Trace().Encode(), soloRec.Trace().Encode()) {
		t.Error("recorder through Multi captured a different trace than solo")
	}
	tl.Finish(multi.Makespan)
	last := tl.Samples()[len(tl.Samples())-1]
	if want := bare.Alloc.Allocs; last.Allocs != want {
		t.Errorf("timeline through Multi counted %d allocs, want %d", last.Allocs, want)
	}
}
