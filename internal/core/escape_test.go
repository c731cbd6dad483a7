package core_test

import (
	"strings"
	"testing"

	"amplify/internal/core"
	"amplify/internal/mccgen"
	"amplify/internal/target"
	"amplify/internal/vm"
)

// escSrc exercises all three analysis-driven rewrites at once:
//   - the churn local in work() is a promotable new/delete pair;
//   - Item never crosses a thread boundary, so its pool goes
//     thread-private;
//   - Msg is handed to spawned readers, so it stays on the standard
//     locked pool and (with a finite bound) gets a reserve call.
const escSrc = `
class Item {
  int v;
public:
  Item(int x) { v = x; }
  ~Item() {}
  int get() { return v; }
};

class Msg {
  int tag;
public:
  Msg(int t) { tag = t; }
  ~Msg() {}
  int read() { return tag; }
};

int work(int d) {
  Item* p = new Item(d);
  int r = p->get();
  delete p;
  return r;
}

void reader(Msg* m) {
  print(m->read());
  delete m;
}

int main() {
  int total = 0;
  for (int i = 0; i < 24; i = i + 1) {
    total = total + work(i);
  }
  for (int j = 0; j < 8; j = j + 1) {
    Msg* m = new Msg(j);
    spawn reader(m);
  }
  join;
  print(total);
  return 0;
}
`

func TestEscapeRewritesApplied(t *testing.T) {
	out, rep, err := core.Rewrite(escSrc, core.Options{Escape: true})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if rep.FramePromoted != 1 {
		t.Errorf("FramePromoted = %d, want 1\n%s", rep.FramePromoted, out)
	}
	if rep.EscapeSites != 2 {
		t.Errorf("EscapeSites = %d, want 2", rep.EscapeSites)
	}
	if !strings.Contains(out, "new(__frame_alloc(Item)) Item(") {
		t.Errorf("missing frame-promoted new:\n%s", out)
	}
	if !strings.Contains(out, "__frame_free(Item, p)") {
		t.Errorf("missing frame free:\n%s", out)
	}
	if len(rep.ThreadLocalPools) != 1 || rep.ThreadLocalPools[0] != "Item" {
		t.Errorf("ThreadLocalPools = %v, want [Item]", rep.ThreadLocalPools)
	}
	if !strings.Contains(out, "__pool_alloc_tl(Item)") || !strings.Contains(out, "__pool_free_tl(Item, p)") {
		t.Errorf("Item operators are not thread-private:\n%s", out)
	}
	if strings.Contains(out, "__pool_alloc_tl(Msg)") {
		t.Errorf("shared class Msg must keep the locked pool:\n%s", out)
	}
	if len(rep.PoolReserves) != 1 || rep.PoolReserves[0].Class != "Msg" || rep.PoolReserves[0].Count != 8 {
		t.Errorf("PoolReserves = %v, want [{Msg 8}]", rep.PoolReserves)
	}
	if !strings.Contains(out, "__pool_reserve(Msg, 8)") {
		t.Errorf("missing reserve call:\n%s", out)
	}
	s := rep.String()
	for _, want := range []string{"frame-promoted", "thread-private pools: Item", "Msg=8"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestEscapeOffIsByteStable pins the opt-in contract: without the flag
// the output is exactly the classic §3.2 transform.
func TestEscapeOffIsByteStable(t *testing.T) {
	off, _, err := core.Rewrite(escSrc, core.Options{})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	for _, marker := range []string{"__frame_alloc", "__frame_free", "__pool_alloc_tl", "__pool_free_tl", "__pool_reserve"} {
		if strings.Contains(off, marker) {
			t.Errorf("escape artifact %q present with Escape off", marker)
		}
	}
	again, rep, err := core.Rewrite(escSrc, core.Options{})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if off != again {
		t.Error("classic output is not deterministic")
	}
	if rep.EscapeSites != 0 || rep.FramePromoted != 0 {
		t.Errorf("escape report fields set with Escape off: %+v", rep)
	}
}

// TestEscapeDifferentialBothEngines runs the escape-rewritten program
// in both engines and requires behavior identical to the original.
func TestEscapeDifferentialBothEngines(t *testing.T) {
	plain, err := runAST(escSrc, target.Config{})
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	want := sortedLines(plain.Output)
	out, _, err := core.Rewrite(escSrc, core.Options{Escape: true})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	ti, err := runAST(out, target.Config{})
	if err != nil {
		t.Fatalf("interp run: %v\n%s", err, out)
	}
	if sortedLines(ti.Output) != want {
		t.Errorf("interp diverged:\n%s\nvs\n%s", ti.Output, plain.Output)
	}
	tv, err := runVM(out, vm.Config{})
	if err != nil {
		t.Fatalf("vm run: %v\n%s", err, out)
	}
	if sortedLines(tv.Output) != want {
		t.Errorf("vm diverged:\n%s\nvs\n%s", tv.Output, plain.Output)
	}
}

// TestEscapeDifferentialRandomPrograms extends the strongest corpus
// check to the analysis-driven rewrites: for generated programs the
// escape-enabled transform must preserve behavior in both engines.
func TestEscapeDifferentialRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cfg := mccgen.Config{Seed: seed}
		if seed%3 == 0 {
			cfg.Threads = 3
		}
		src := mccgen.Generate(cfg)
		plain, err := runAST(src, target.Config{})
		if err != nil {
			t.Fatalf("seed %d: plain run failed: %v", seed, err)
		}
		want := sortedLines(plain.Output)
		out, _, err := core.Rewrite(src, core.Options{Escape: true})
		if err != nil {
			t.Fatalf("seed %d: rewrite failed: %v\nprogram:\n%s", seed, err, src)
		}
		gi, err := runAST(out, target.Config{})
		if err != nil {
			t.Fatalf("seed %d: interp run failed: %v\ntransformed:\n%s", seed, err, out)
		}
		if sortedLines(gi.Output) != want {
			t.Fatalf("seed %d: interp diverged\nplain:\n%s\ngot:\n%s\nprogram:\n%s\ntransformed:\n%s",
				seed, plain.Output, gi.Output, src, out)
		}
		gv, err := runVM(out, vm.Config{})
		if err != nil {
			t.Fatalf("seed %d: vm run failed: %v\ntransformed:\n%s", seed, err, out)
		}
		if sortedLines(gv.Output) != want {
			t.Fatalf("seed %d: vm diverged\nplain:\n%s\ngot:\n%s\nprogram:\n%s\ntransformed:\n%s",
				seed, plain.Output, gv.Output, src, out)
		}
	}
}

// TestEscapeReducesAllocatorTraffic checks the optimization's point:
// frame promotion must remove the promoted churn from the heap
// entirely, visible as fewer allocator allocations.
func TestEscapeReducesAllocatorTraffic(t *testing.T) {
	classic, _, err := core.Rewrite(escSrc, core.Options{})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	esc, _, err := core.Rewrite(escSrc, core.Options{Escape: true})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	rc, err := runAST(classic, target.Config{})
	if err != nil {
		t.Fatalf("classic run: %v", err)
	}
	re, err := runAST(esc, target.Config{})
	if err != nil {
		t.Fatalf("escape run: %v", err)
	}
	if re.Alloc.Allocs >= rc.Alloc.Allocs {
		t.Errorf("escape rewrites did not reduce allocator traffic: %d >= %d",
			re.Alloc.Allocs, rc.Alloc.Allocs)
	}
}
