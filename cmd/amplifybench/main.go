// Command amplifybench regenerates the tables and figures of the
// paper's evaluation section on the simulated 8-processor machine.
//
// Usage:
//
//	amplifybench [flags]
//
// Flags:
//
//	-exp list     comma-separated experiments (see -list), or "all";
//	              unknown names fail before any experiment runs
//	-quick        smaller runs (coarser thread grid, fewer trees/CDRs)
//	-list         list experiment names and exit
//	-format f     text (default), csv or chart; csv and chart render
//	              figures and leave other experiments as text; not
//	              with -json
//	-j N          run up to N independent simulations concurrently
//	              (default: the host's CPU count; output is identical
//	              for every N — only wall-clock changes)
//	-json         emit a machine-readable BENCH report (schema
//	              amplify-bench/7) on stdout instead of text
//	-alloc list   comma-separated allocators for the contend experiment
//	              (default serial,ptmalloc,hoard,lfalloc); unknown names
//	              fail fast with the registered strategies
//	-observe d    export the 16 observation artifacts into d: Chrome
//	              traces and heap timelines (JSONL+CSV) of the tree
//	              workload under serial/ptmalloc/amplify, the serial
//	              run's JSONL event stream and per-lock contention
//	              profile, cycle and allocation-site folded stacks of
//	              the end-to-end MiniCC program with a per-site table, a
//	              metrics.json snapshot and a heap-summary.json of
//	              per-cell footprint/fragmentation
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
//
// -compare, -explain, -host-bench and -list each select a mode; without
// one, amplifybench runs experiments. A flag the selected mode would
// ignore is refused with exit 1 before anything runs: -compare reads
// only -threshold, -explain only -threshold, -j and -json, -host-bench
// and -list nothing else, and an experiment run everything but
// -threshold.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
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
	format := flag.String("format", "text", "text | csv | chart (csv and chart apply to figures; not with -json)")
	jobs := flag.Int("j", runtime.NumCPU(), "max concurrent simulations")
	jsonOut := flag.Bool("json", false, "emit machine-readable report on stdout")
	noOpt := flag.Bool("no-opt", false, "disable the VM bytecode optimizer (identical simulated results, slower host)")
	allocList := flag.String("alloc", "", "comma-separated allocators for the contend experiment (default "+strings.Join(workload.ChurnStrategies(), ",")+")")
	hostBench := flag.Bool("host-bench", false, "run the host-side Go benchmarks (VM, scheduler) and emit a BENCH_host JSON report on stdout; no simulation experiments are run")
	observeDir := flag.String("observe", "", "export the trace, profile, heap and metrics artifacts into this directory")
	compare := flag.Bool("compare", false, "diff two bench reports: amplifybench -compare baseline.json current.json")
	explain := flag.Bool("explain", false, "attribute regressions between two bench reports: amplifybench -explain baseline.json current.json")
	threshold := flag.Float64("threshold", 0, "with -compare/-explain: allowed degradation in percent (0 = exact)")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write heap profile to file")
	flag.Parse()

	// Each mode reads only some flags: refuse one it would ignore,
	// naming the flag and the mode, before anything runs.
	mode, reads := "an experiment run", []string{"exp", "quick", "format", "j", "json", "no-opt", "alloc", "observe", "cpuprofile", "memprofile"}
	switch {
	case *compare:
		mode, reads = "-compare", []string{"compare", "threshold"}
	case *explain:
		mode, reads = "-explain", []string{"explain", "threshold", "j", "json"}
	case *hostBench:
		mode, reads = "-host-bench", []string{"host-bench"}
	case *list:
		mode, reads = "-list", []string{"list"}
	}
	set := map[string]bool{}
	var ignored string
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if ignored == "" && !slices.Contains(reads, f.Name) {
			ignored = f.Name
		}
	})
	if ignored != "" {
		return fmt.Errorf("-%s does not apply to %s", ignored, mode)
	}

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

	if *list {
		fmt.Println(strings.Join(bench.Names(), "\n"))
		return nil
	}

	// Refuse every bad argument before any simulation runs: a typo
	// should cost milliseconds, not a warm-up.
	todo := bench.Names()
	if *exp != "all" {
		todo = strings.Split(*exp, ",")
		for _, name := range todo {
			if err := bench.Valid(name); err != nil {
				return err
			}
		}
	}
	switch *format {
	case "text", "csv", "chart":
	default:
		return fmt.Errorf("unknown -format %q (want text, csv or chart)", *format)
	}
	if set["format"] && *jsonOut {
		return fmt.Errorf("-format does not apply to -json reports")
	}
	var contendAllocs []string
	if *allocList != "" {
		contendAllocs = strings.Split(*allocList, ",")
		for _, n := range contendAllocs {
			if err := alloc.Valid(n); err != nil {
				return err
			}
		}
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
	r.ContendAllocs = contendAllocs

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

	if *observeDir != "" {
		if err := r.Export(*observeDir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "observation artifacts written to %s\n", *observeDir)
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
		out, err := r.Render(name, format)
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
