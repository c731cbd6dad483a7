// Command amplifybench regenerates the tables and figures of the
// paper's evaluation section on the simulated 8-processor machine.
//
// Usage:
//
//	amplifybench [flags]
//
// Flags:
//
//	-exp name     one of table1, fig4..fig11, claims, escape, endtoend,
//	              or "all" (see -list for the full set)
//	-quick        smaller runs (coarser thread grid, fewer trees/CDRs)
//	-list         list experiment names and exit
//	-j N          run up to N independent simulations concurrently
//	              (default: the host's CPU count; output is identical
//	              for every N — only wall-clock changes)
//	-json         emit a machine-readable BENCH report (schema
//	              amplify-bench/7) on stdout instead of text
//	-alloc list   comma-separated allocators for the contend experiment
//	              (default serial,ptmalloc,hoard,lfalloc); unknown names
//	              fail fast with the registered strategies
//	-trace-dir d  export observability artifacts into d: Chrome traces
//	              of the tree workload under serial/ptmalloc/amplify, a
//	              JSONL event stream, a per-lock contention profile,
//	              folded stacks of the end-to-end MiniCC program, and a
//	              metrics.json snapshot
//	-heap-dir d   export heap-introspection artifacts into d:
//	              virtual-time heap timelines (JSONL+CSV) of the tree
//	              workload under serial/ptmalloc/amplify, allocation-site
//	              folded stacks of the end-to-end program, and a
//	              heap-summary.json of per-cell footprint/fragmentation
//	-compare old new  diff two bench reports (no experiments are run);
//	              exits 3 when a makespan, footprint or fragmentation
//	              number regressed past -threshold; host-benchmark
//	              reports (schema amplify-hostbench/*) are detected by
//	              schema and diffed on ns/op and allocs/op instead —
//	              use a generous -threshold there, host timings are
//	              noisy by construction
//	-threshold p  allowed relative degradation for -compare, in percent
//	              (fragmentation: percentage points); default 0 = exact
//	-explain old new  attribute the regressions between two simulated
//	              bench reports: diff like -compare, re-run the worst
//	              regressed cells with the lock/cycle/heap-site
//	              profilers attached, and print a deterministic ranked
//	              report naming the responsible locks, fn@line sites
//	              and allocator-op classes (JSON with -json; -j and
//	              -threshold apply; report bytes are identical at any
//	              -j). Exits 0 — explaining is diagnosis, not a gate
//	-no-opt       disable the VM bytecode optimizer (default runs -O);
//	              simulated results are identical either way — CI
//	              enforces it — only host wall-clock changes
//	-cpuprofile f write a pprof CPU profile of the whole run to f
//	-memprofile f write a pprof heap profile (post-GC) to f
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"amplify/internal/alloc"
	"amplify/internal/bench"
	"amplify/internal/workload"
)

// errRegression marks a -compare run that found regressions; main
// turns it into exit code 3 so CI can tell "bench regressed" apart
// from "bench broke".
var errRegression = errors.New("bench comparison found regressions")

func main() {
	if err := run(); err != nil {
		if errors.Is(err, errRegression) {
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "amplifybench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "all", "experiment to run (see -list)")
	quick := flag.Bool("quick", false, "reduced experiment sizes")
	list := flag.Bool("list", false, "list experiments")
	format := flag.String("format", "text", "text | csv | chart (figures only)")
	jobs := flag.Int("j", runtime.NumCPU(), "max concurrent simulations")
	jsonOut := flag.Bool("json", false, "emit machine-readable report on stdout")
	noOpt := flag.Bool("no-opt", false, "disable the VM bytecode optimizer (identical simulated results, slower host)")
	allocList := flag.String("alloc", "", "comma-separated allocators for the contend experiment (default "+strings.Join(workload.ChurnStrategies(), ",")+")")
	hostBench := flag.Bool("host-bench", false, "run the host-side Go benchmarks (VM, scheduler) and emit a BENCH_host JSON report on stdout; no simulation experiments are run")
	traceDir := flag.String("trace-dir", "", "export trace/profile/metrics artifacts into this directory")
	heapDir := flag.String("heap-dir", "", "export heap timeline/site-profile/summary artifacts into this directory")
	compare := flag.Bool("compare", false, "diff two bench reports: amplifybench -compare baseline.json current.json")
	explain := flag.Bool("explain", false, "attribute regressions between two bench reports: amplifybench -explain baseline.json current.json")
	threshold := flag.Float64("threshold", 0, "with -compare/-explain: allowed degradation in percent (0 = exact)")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write heap profile to file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two report files: baseline.json current.json")
		}
		return runCompare(flag.Arg(0), flag.Arg(1), *threshold)
	}

	if *explain {
		if flag.NArg() != 2 {
			return fmt.Errorf("-explain needs exactly two report files: baseline.json current.json")
		}
		return runExplain(flag.Arg(0), flag.Arg(1), *threshold, *jobs, *jsonOut)
	}

	if *hostBench {
		return runHostBench()
	}

	names := append(bench.Names(), "endtoend")
	if *list {
		fmt.Println(strings.Join(names, "\n"))
		return nil
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	r := bench.NewRunner(*quick)
	r.Jobs = *jobs
	r.VMNoOpt = *noOpt
	if *allocList != "" {
		// Fail fast on unknown allocator names, before any simulation
		// runs: a typo'd -alloc should cost milliseconds, not a warm-up.
		names := strings.Split(*allocList, ",")
		for _, n := range names {
			if err := alloc.Valid(n); err != nil {
				return err
			}
		}
		r.ContendAllocs = names
	}
	var todo []string
	if *exp == "all" {
		todo = []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "claims", "memory", "pipeline", "sensitivity", "escape", "scale", "contend", "replay", "endtoend"}
	} else {
		todo = strings.Split(*exp, ",")
	}

	start := time.Now()
	// Warm the memo with up to -j concurrent simulations; each
	// experiment below then reduces to table formatting over the same
	// cells a sequential run would compute, in the same order.
	if *jobs > 1 {
		if err := r.Precompute(todo); err != nil {
			return err
		}
	}

	if *jsonOut {
		rep, err := r.Report(todo)
		if err != nil {
			return err
		}
		rep.WallSeconds = time.Since(start).Seconds()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else if err := runText(r, todo, *format); err != nil {
		return err
	}

	if *traceDir != "" {
		if err := r.ExportTraces(*traceDir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "observability artifacts written to %s\n", *traceDir)
	}

	if *heapDir != "" {
		if err := r.ExportHeap(*heapDir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "heap artifacts written to %s\n", *heapDir)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// runCompare diffs two bench report files and prints the summary; a
// regression surfaces as errRegression (exit 3), a malformed report as
// an ordinary error (exit 1). The report kind is sniffed from the
// schema field: amplify-bench/* reports diff simulated makespans and
// heap numbers, amplify-hostbench/* reports diff host ns/op and
// allocs/op (pair a generous -threshold with those — host timings are
// noisy by construction). Mixing the two kinds is an error.
func runCompare(baselinePath, currentPath string, threshold float64) error {
	baseRaw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	curRaw, err := os.ReadFile(currentPath)
	if err != nil {
		return err
	}
	baseSchema, err := sniffSchema(baselinePath, baseRaw)
	if err != nil {
		return err
	}
	curSchema, err := sniffSchema(currentPath, curRaw)
	if err != nil {
		return err
	}
	baseHost := strings.HasPrefix(baseSchema, "amplify-hostbench/")
	if curHost := strings.HasPrefix(curSchema, "amplify-hostbench/"); baseHost != curHost {
		return fmt.Errorf("cannot compare %q (%s) against %q (%s): one is a host-benchmark report, the other a simulated-bench report",
			baselinePath, baseSchema, currentPath, curSchema)
	}

	var cmp *bench.Comparison
	if baseHost {
		var baseline, current bench.HostReport
		if err := loadJSON(baselinePath, baseRaw, &baseline); err != nil {
			return err
		}
		if err := loadJSON(currentPath, curRaw, &current); err != nil {
			return err
		}
		cmp, err = bench.CompareHost(&baseline, &current, threshold)
	} else {
		var baseline, current bench.Report
		if err := loadJSON(baselinePath, baseRaw, &baseline); err != nil {
			return err
		}
		if err := loadJSON(currentPath, curRaw, &current); err != nil {
			return err
		}
		cmp, err = bench.Compare(&baseline, &current, threshold)
	}
	if err != nil {
		return err
	}
	fmt.Print(cmp.Format())
	if cmp.Regressed() {
		return errRegression
	}
	return nil
}

// runExplain diffs two simulated bench reports and attributes every
// regression via profiled re-runs of the worst cells (bench.Explain).
// Unlike -compare it always exits 0 on success: attribution is the
// diagnostic step after a -compare gate has already failed.
func runExplain(baselinePath, currentPath string, threshold float64, jobs int, jsonOut bool) error {
	var baseline, current bench.Report
	for _, f := range []struct {
		path string
		into *bench.Report
	}{{baselinePath, &baseline}, {currentPath, &current}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		schema, err := sniffSchema(f.path, raw)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(schema, "amplify-bench/") {
			return fmt.Errorf("%s: -explain needs simulated bench reports (amplify-bench/*), got %q", f.path, schema)
		}
		if err := loadJSON(f.path, raw, f.into); err != nil {
			return err
		}
	}
	ex, err := bench.Explain(&baseline, &current, bench.ExplainOptions{
		ThresholdPct: threshold,
		Jobs:         jobs,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(ex)
	}
	fmt.Print(ex.Format())
	return nil
}

// sniffSchema extracts the schema field of a report file so -compare
// can dispatch without committing to a full struct first.
func sniffSchema(path string, raw []byte) (string, error) {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	if head.Schema == "" {
		return "", fmt.Errorf("%s: no schema field — not a bench report", path)
	}
	return head.Schema, nil
}

func loadJSON(path string, raw []byte, v any) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func runText(r *bench.Runner, todo []string, format string) error {
	for i, name := range todo {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		var out string
		var err error
		switch {
		case name == "endtoend" && format == "text":
			out, err = r.EndToEnd()
		case (format == "csv" || format == "chart") && (strings.HasPrefix(name, "fig") || name == "endtoend"):
			var f *bench.Figure
			f, err = r.Figure(name)
			if err == nil && format == "csv" {
				out = f.CSV()
			} else if err == nil {
				out = f.Chart(16)
			}
		default:
			out, err = r.Run(name)
		}
		if err != nil {
			return err
		}
		fmt.Print(out)
		if format != "csv" {
			fmt.Printf("[%s regenerated in %.1fs]\n", name, time.Since(start).Seconds())
		}
	}
	return nil
}
