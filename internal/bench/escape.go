package bench

import (
	"fmt"
	"strings"

	"amplify/internal/core"
	"amplify/internal/vet"
	"amplify/internal/vm"
)

// The escape experiment measures what the interprocedural analysis
// (internal/vet) buys when it drives the rewrites instead of only
// vetoing them: the same committed MiniCC workloads run through the
// classic §3.2 transform and through the analysis-driven one (frame
// promotion, thread-private pools, pool pre-sizing), on the bytecode
// VM over the same simulated machine.

// escWorkload is one committed corpus program.
type escWorkload struct {
	name string
	src  string
}

// escThreads is the thread count of the threaded corpus programs.
const escThreads = 4

// escWorkloads returns the committed corpus, sized for the Runner's
// tier. Every workload is deterministic and prints nothing from
// spawned threads, so both engines must produce identical output.
func (r *Runner) escWorkloads() []escWorkload {
	churnTrees, builderIters, ringMsgs := 96, 96, 48
	if r.quick {
		churnTrees, builderIters, ringMsgs = 24, 48, 16
	}
	return []escWorkload{
		// The paper's tree churn: the per-tree root is a promotable
		// new/delete pair, and Node never crosses a spawn boundary
		// (workers only exchange ints), so its pool goes lock-free.
		{"treechurn", treeSource(escThreads, churnTrees, e2eDepth)},
		// Single-threaded builder with statically bounded loops: the
		// factory-made objects escape their creating function but the
		// call-graph bound is finite, so the pool is pre-sized.
		{"builder", escBuilderSource(builderIters)},
		// Spawn hand-off ring: Msg crosses the thread boundary and must
		// keep the locked pool; the consumer's scratch Buf is both
		// frame-promotable and thread-local.
		{"msgring", escRingSource(ringMsgs)},
	}
}

func escBuilderSource(iters int) string {
	return fmt.Sprintf(`
class Part {
  int a;
public:
  Part(int x) { a = x; }
  ~Part() {}
  int get() { return a; }
};

class Rec {
  Rec* next;
  int v;
public:
  Rec(int x) { v = x * 3; next = null; }
  ~Rec() {}
  int val() { return v; }
  Rec* tail() { return next; }
  void link(Rec* n) { next = n; }
};

Rec* make(int x) {
  return new Rec(x);
}

int main() {
  int total = 0;
  for (int i = 0; i < %d; i = i + 1) {
    Part* p = new Part(i);
    total = total + p->get();
    delete p;
  }
  Rec* head = make(0);
  Rec* cur = head;
  for (int j = 1; j < %d; j = j + 1) {
    Rec* r = make(j);
    cur->link(r);
    cur = r;
  }
  cur = head;
  while (cur) {
    total = total + cur->val();
    cur = cur->tail();
  }
  while (head) {
    Rec* t = head->tail();
    delete head;
    head = t;
  }
  print(total);
  return 0;
}
`, iters, iters)
}

func escRingSource(msgs int) string {
	return fmt.Sprintf(`
class Msg {
  int tag;
public:
  Msg(int t) { tag = t; }
  ~Msg() {}
  int read() { return tag; }
};

class Buf {
  int v;
public:
  Buf(int x) { v = x + 1; }
  ~Buf() {}
  int get() { return v; }
};

void consume(Msg* m) {
  Buf* b = new Buf(m->read());
  __work(b->get());
  delete b;
  delete m;
}

int main() {
  for (int i = 0; i < %d; i = i + 1) {
    Msg* m = new Msg(i);
    spawn consume(m);
  }
  join;
  return 0;
}
`, msgs)
}

// escapeCell is one corpus workload pre-processed with or without the
// analysis-driven rewrites.
func (r *Runner) escapeCell(w escWorkload, escape bool) cell {
	variant := "classic"
	if escape {
		variant = "escape"
	}
	return r.vmCell(fmt.Sprintf("escape/%s/%s", w.name, variant), w.src, &core.Options{Escape: escape}, "")
}

// EscapeSiteReport is one `new` site's verdict in the bench report.
type EscapeSiteReport struct {
	Func     string `json:"func"`
	Class    string `json:"class"`
	Line     int    `json:"line"`
	Verdict  string `json:"verdict"`
	Bound    int64  `json:"bound"`
	Promoted bool   `json:"promoted"`
}

// EscapeWorkloadReport is the per-class/per-site verdict section of
// one corpus workload (bench report schema v4).
type EscapeWorkloadReport struct {
	Workload    string             `json:"workload"`
	Sites       []EscapeSiteReport `json:"sites"`
	ThreadLocal []string           `json:"thread_local"`
	Shared      []string           `json:"shared"`
	Presize     []vet.ClassBound   `json:"presize,omitempty"`
}

// EscapeVerdicts runs the interprocedural analysis over the committed
// corpus and returns the per-workload verdict sections.
func (r *Runner) EscapeVerdicts() ([]EscapeWorkloadReport, error) {
	var out []EscapeWorkloadReport
	for _, w := range r.escWorkloads() {
		prog, err := analyze(w.src)
		if err != nil {
			return nil, fmt.Errorf("escape verdicts %s: %w", w.name, err)
		}
		rep := vet.Escape(prog)
		wr := EscapeWorkloadReport{
			Workload:    w.name,
			Sites:       []EscapeSiteReport{},
			ThreadLocal: rep.ThreadLocal,
			Shared:      rep.Shared,
			Presize:     rep.Presize,
		}
		for _, s := range rep.Sites {
			wr.Sites = append(wr.Sites, EscapeSiteReport{
				Func: s.Func, Class: s.Class, Line: s.Pos.Line,
				Verdict: s.Escape.String(), Bound: s.Bound, Promoted: s.Promote,
			})
		}
		out = append(out, wr)
	}
	return out, nil
}

// Escape renders the experiment: makespan and peak footprint of every
// corpus workload under the classic transform vs the analysis-driven
// one, followed by the analysis verdicts.
func (r *Runner) Escape() (string, error) {
	var b strings.Builder
	b.WriteString("Escape-analysis rewrites: classic amplify vs analysis-driven (bytecode VM)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %8s %12s %12s\n",
		"workload", "classic", "escape", "speedup", "classic-peak", "escape-peak")
	for _, w := range r.escWorkloads() {
		classic, err := resultOf[vm.Result](r, r.escapeCell(w, false))
		if err != nil {
			return "", err
		}
		esc, err := resultOf[vm.Result](r, r.escapeCell(w, true))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s %14d %14d %7.2fx %12d %12d\n",
			w.name, classic.Makespan, esc.Makespan,
			float64(classic.Makespan)/float64(esc.Makespan),
			classic.Alloc.PeakBytes, esc.Alloc.PeakBytes)
	}
	verdicts, err := r.EscapeVerdicts()
	if err != nil {
		return "", err
	}
	b.WriteString("verdicts:\n")
	for _, wr := range verdicts {
		promoted := 0
		for _, s := range wr.Sites {
			if s.Promoted {
				promoted++
			}
		}
		fmt.Fprintf(&b, "  %-10s %d sites (%d frame-promoted)", wr.Workload, len(wr.Sites), promoted)
		if len(wr.Shared) > 0 {
			fmt.Fprintf(&b, "; shared: %s", strings.Join(wr.Shared, ", "))
		}
		if len(wr.Presize) > 0 {
			parts := make([]string, 0, len(wr.Presize))
			for _, p := range wr.Presize {
				parts = append(parts, fmt.Sprintf("%s=%d", p.Class, p.Count))
			}
			fmt.Fprintf(&b, "; presize: %s", strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
