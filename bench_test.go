// Benchmarks regenerating every table and figure of the paper, the
// ablations called out in DESIGN.md §4, and micro-benchmarks of the
// library itself. Figure benchmarks execute one full experiment per
// iteration on the simulated 8-CPU machine and attach the headline
// numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation and reports the library's own throughput.
package amplify

import (
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/bench"
	"amplify/internal/bgw"
	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/interp"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
	"amplify/internal/target"
	"amplify/internal/workload"
)

// benchTreeCfg is the reduced-size configuration used by the figure
// benchmarks (full sizes live in cmd/amplifybench).
func benchTreeCfg(depth, threads int) workload.TreeConfig {
	return workload.TreeConfig{
		Depth:    depth,
		Trees:    1200,
		Threads:  threads,
		InitWork: bench.InitWork,
		UseWork:  bench.UseWork,
	}
}

// speedupAt runs one workload strategy and reports its paper-style
// speedup at the given thread count.
func speedupAt(b *testing.B, strategy string, depth, threads int) float64 {
	b.Helper()
	base, err := workload.RunTree("serial", benchTreeCfg(depth, 1))
	if err != nil {
		b.Fatal(err)
	}
	r, err := workload.RunTree(strategy, benchTreeCfg(depth, threads))
	if err != nil {
		b.Fatal(err)
	}
	return float64(base.Makespan) / float64(r.Makespan)
}

// --- Table 1 ---

func BenchmarkTable1Sizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{1, 3, 5} {
			if workload.Nodes(depth) == 0 {
				b.Fatal("impossible")
			}
		}
	}
	b.ReportMetric(float64(workload.Nodes(1)), "case1-objects")
	b.ReportMetric(float64(workload.Nodes(3)), "case2-objects")
	b.ReportMetric(float64(workload.Nodes(5)), "case3-objects")
}

// --- Figures 4-6: speedup per test case ---

func speedupFigure(b *testing.B, depth int) {
	var amp, pt, hoard float64
	for i := 0; i < b.N; i++ {
		pt = speedupAt(b, "ptmalloc", depth, 8)
		hoard = speedupAt(b, "hoard", depth, 8)
		amp = speedupAt(b, "amplify", depth, 8)
	}
	b.ReportMetric(pt, "ptmalloc-speedup@8T")
	b.ReportMetric(hoard, "hoard-speedup@8T")
	b.ReportMetric(amp, "amplify-speedup@8T")
}

func BenchmarkFig4SpeedupCase1(b *testing.B) { speedupFigure(b, 1) }
func BenchmarkFig5SpeedupCase2(b *testing.B) { speedupFigure(b, 3) }
func BenchmarkFig6SpeedupCase3(b *testing.B) { speedupFigure(b, 5) }

// --- Figures 7-9: scaleup per test case ---

func scaleupFigure(b *testing.B, depth int) {
	var amp8, amp1 float64
	for i := 0; i < b.N; i++ {
		amp1 = speedupAt(b, "amplify", depth, 1)
		amp8 = speedupAt(b, "amplify", depth, 8)
	}
	b.ReportMetric(amp8/amp1, "amplify-scaleup@8T")
}

func BenchmarkFig7ScaleupCase1(b *testing.B) { scaleupFigure(b, 1) }
func BenchmarkFig8ScaleupCase2(b *testing.B) { scaleupFigure(b, 3) }
func BenchmarkFig9ScaleupCase3(b *testing.B) { scaleupFigure(b, 5) }

// --- Figure 10: handmade pool and oversubscription ---

func BenchmarkFig10Handmade(b *testing.B) {
	var hand8, amp12, hoard12 float64
	for i := 0; i < b.N; i++ {
		hand8 = speedupAt(b, "handmade", 3, 8)
		amp12 = speedupAt(b, "amplify", 3, 12)
		hoard12 = speedupAt(b, "hoard", 3, 12)
	}
	b.ReportMetric(hand8, "handmade-speedup@8T")
	b.ReportMetric(amp12, "amplify-speedup@12T")
	b.ReportMetric(hoard12, "hoard-speedup@12T")
}

// --- Figure 11: BGw ---

func BenchmarkFig11BGw(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		sh, err := bgw.Run(bgw.Config{CDRs: 1500, Threads: 2, Strategy: "smartheap"})
		if err != nil {
			b.Fatal(err)
		}
		amp, err := bgw.Run(bgw.Config{CDRs: 1500, Threads: 2, Strategy: "smartheap", Amplify: true})
		if err != nil {
			b.Fatal(err)
		}
		gain = float64(sh.Makespan)/float64(amp.Makespan) - 1
	}
	b.ReportMetric(gain*100, "amplify-gain-%")
}

// --- End to end: the real pre-processor output, interpreted ---

func BenchmarkEndToEndPipeline(b *testing.B) {
	src := `
class Node {
public:
    Node(int d) {
        v = d;
        if (d > 0) {
            left = new Node(d - 1);
            right = new Node(d - 1);
        }
    }
    ~Node() {
        delete left;
        delete right;
    }
private:
    Node* left;
    Node* right;
    int v;
};

void churn(int n) {
    for (int i = 0; i < n; i = i + 1) {
        Node* r = new Node(3);
        delete r;
    }
}

int main() {
    spawn churn(60);
    spawn churn(60);
    join;
    return 0;
}
`
	var plainT, ampT int64
	for i := 0; i < b.N; i++ {
		out, _, err := core.Rewrite(src, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		plain, err := interp.Run(cc.MustAnalyze(cc.MustParse(src)), target.Config{})
		if err != nil {
			b.Fatal(err)
		}
		amp, err := interp.Run(cc.MustAnalyze(cc.MustParse(out)), target.Config{})
		if err != nil {
			b.Fatal(err)
		}
		plainT, ampT = plain.Makespan, amp.Makespan
	}
	b.ReportMetric(float64(plainT)/float64(ampT), "pipeline-speedup")
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationPoolSpreading compares the default spread pools with
// a single locked pool per class.
func BenchmarkAblationPoolSpreading(b *testing.B) {
	run := func(shards int) int64 {
		cfg := benchTreeCfg(3, 8)
		cfg.Pool = pool.Config{Shards: shards}
		r, err := workload.RunTree("amplify", cfg)
		if err != nil {
			b.Fatal(err)
		}
		return r.Makespan
	}
	var one, spread int64
	for i := 0; i < b.N; i++ {
		one = run(1)
		spread = run(16)
	}
	b.ReportMetric(float64(one)/float64(spread), "spreading-speedup")
}

// BenchmarkAblationShadowVsObjectPool isolates the structure-reuse idea:
// Amplify's one-pool-op-per-structure against a traditional per-object
// pool (§2.1).
func BenchmarkAblationShadowVsObjectPool(b *testing.B) {
	var obj, amp int64
	for i := 0; i < b.N; i++ {
		ro, err := workload.RunTree("objectpool", benchTreeCfg(5, 8))
		if err != nil {
			b.Fatal(err)
		}
		ra, err := workload.RunTree("amplify", benchTreeCfg(5, 8))
		if err != nil {
			b.Fatal(err)
		}
		obj, amp = ro.Makespan, ra.Makespan
	}
	b.ReportMetric(float64(obj)/float64(amp), "structure-vs-object-speedup")
}

// BenchmarkAblationLockElision measures the single-threaded lock
// removal (the cause of Figure 4's 1->2 thread drop).
func BenchmarkAblationLockElision(b *testing.B) {
	run := func(elide bool) int64 {
		cfg := benchTreeCfg(1, 1)
		cfg.Pool = pool.Config{Shards: 1}
		cfg.KeepPoolLocks = !elide
		r, err := workload.RunTree("amplify", cfg)
		if err != nil {
			b.Fatal(err)
		}
		return r.Makespan
	}
	var locked, elided int64
	for i := 0; i < b.N; i++ {
		locked = run(false)
		elided = run(true)
	}
	b.ReportMetric(float64(locked)/float64(elided), "elision-speedup")
}

// BenchmarkAblationReallocRule compares the half-to-full shadow reuse
// rule with always-reuse on a shrinking request sequence: always-reuse
// never reallocates (fast) but pins the largest block forever, while
// the rule bounds waste at 2x by reallocating when requests fall below
// half the shadow block.
func BenchmarkAblationReallocRule(b *testing.B) {
	run := func(always bool) (makespan, waste int64) {
		e := sim.New(sim.Config{Processors: 2})
		sp := mem.NewSpace()
		under, err := alloc.New("serial", e, sp, alloc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rt := pool.NewRuntime(e, under, pool.Config{AlwaysReuseShadow: always})
		e.Go("w", func(c *sim.Ctx) {
			ref, usable := rt.ShadowRealloc(c, mem.Nil, 0, 8192)
			for i := 0; i < 4000; i++ {
				want := int64(64 + (i*37)%64) // small requests after one big one
				ref, usable = rt.ShadowRealloc(c, ref, usable, want)
				waste = usable - want
			}
		})
		makespan = e.Run()
		return makespan, waste
	}
	var ruleT, ruleW, alwaysT, alwaysW int64
	for i := 0; i < b.N; i++ {
		ruleT, ruleW = run(false)
		alwaysT, alwaysW = run(true)
	}
	b.ReportMetric(float64(alwaysT)/float64(ruleT), "time-ratio-always-vs-rule")
	b.ReportMetric(float64(alwaysW)/float64(ruleW+1), "waste-ratio-always-vs-rule")
}

// BenchmarkAblationHoardMapping contrasts thread-id modulation over P
// heaps (the public Hoard the paper used) with 2P heaps, at 12 threads
// on 8 CPUs — the regime where Figure 10 shows Hoard collapsing.
// With 2P heaps the id modulation no longer collides, so most of the
// degradation disappears: evidence for the paper's diagnosis.
func BenchmarkAblationHoardMapping(b *testing.B) {
	run := func(heaps int) int64 {
		cfg := benchTreeCfg(3, 12)
		cfg.Arenas = heaps
		r, err := workload.RunTree("hoard", cfg)
		if err != nil {
			b.Fatal(err)
		}
		return r.Makespan
	}
	var p, twoP int64
	for i := 0; i < b.N; i++ {
		p = run(8)
		twoP = run(16)
	}
	b.ReportMetric(float64(p)/float64(twoP), "2P-heaps-speedup@12T")
}

// --- Micro-benchmarks of the library itself (real time) ---

func BenchmarkSimEngineThroughput(b *testing.B) {
	cfg := benchTreeCfg(3, 4)
	cfg.Trees = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.RunTree("amplify", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLexer(b *testing.B) {
	src := benchSource()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := cc.Lex(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParser(b *testing.B) {
	src := benchSource()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := cc.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocessor(b *testing.B) {
	src := benchSource()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Rewrite(src, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreter(b *testing.B) {
	src := benchSource()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(cc.MustAnalyze(cc.MustParse(src)), target.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSource() string {
	return `
class Node {
public:
    Node(int d) {
        v = d;
        if (d > 0) {
            left = new Node(d - 1);
            right = new Node(d - 1);
        }
    }
    ~Node() {
        delete left;
        delete right;
    }
    int sum() {
        int s = v;
        if (left) {
            s = s + left->sum();
        }
        if (right) {
            s = s + right->sum();
        }
        return s;
    }
private:
    Node* left;
    Node* right;
    int v;
};

int main() {
    int total = 0;
    for (int i = 0; i < 20; i = i + 1) {
        Node* n = new Node(4);
        total = total + n->sum();
        delete n;
    }
    return total;
}
`
}
