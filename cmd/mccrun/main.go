// Command mccrun executes a MiniCC program on the simulated SMP.
//
// Usage:
//
//	mccrun [flags] program.mcc
//
// Flags:
//
//	-alloc s      C-library allocator: serial | ptmalloc | hoard |
//	              smartheap | lkmalloc | lfalloc; unknown names fail
//	              fast with the list of registered strategies
//	-procs n      simulated processors (default 8)
//	-amplify      run the Amplify pre-processor before executing
//	-arrays-only  with -amplify: only shadow data-type arrays
//	-mode m       with -amplify: shadow | flag
//	-no-opt       disable the bytecode optimizer
//	              (the default -O behavior changes nothing simulated,
//	              only host speed)
//	-stats        print execution statistics to stderr
//	-vet          lint the program first (including the interprocedural
//	              escape/lifetime verdicts); refuse to run on errors
//	-escape       with -amplify: apply the escape-analysis-driven
//	              rewrites (frame promotion, thread-private pools,
//	              pool pre-sizing)
//	-trace n      print the first n simulation events to stderr
//	-trace-out f  write a Chrome trace_event JSON file (load it in
//	              chrome://tracing or Perfetto; one track per virtual CPU,
//	              async slices for lock-wait intervals)
//	-trace-jsonl f write the simulation events as compact JSON lines
//	-profile-out f write pprof-style folded stacks attributing simulated
//	              cycles to MiniCC functions; the per-lock contention
//	              profile goes to f.locks
//	-heap-timeline f write a virtual-time heap timeline:
//	              footprint, live/free bytes, fragmentation, pool
//	              retention — JSONL by default, CSV when f ends in .csv
//	-heap-interval n sampling period of -heap-timeline in cycles
//	              (positive; only with -heap-timeline)
//	-heap-profile f write pprof-style folded stacks attributing allocated
//	              bytes to MiniCC allocation sites; a per-site table
//	              goes to f.sites
//	-record-trace f write the run's allocator request stream as a binary
//	              allocation trace (internal/alloctrace format) with a
//	              JSONL mirror at f.jsonl; replay it through any
//	              allocator with mcctrace replay
//	-metrics f    write a JSON metrics snapshot of the run, including
//	              per-span counters; use - for stderr
//	-spans f      write a JSONL span stream of the whole pipeline (read
//	              -> parse -> sema -> vet -> amplify -> compile ->
//	              simulate) with host-time durations and deterministic
//	              attributes; use - for stderr. With -trace-out the
//	              spans also appear as a dedicated host track in the
//	              Chrome trace, alongside the virtual-CPU tracks.
//
// The program's print() output goes to stdout; everything diagnostic
// (-stats, -metrics -, -spans -) goes to stderr, so recorded stdout
// stays byte-diffable. The exit code is main's return value.
// Observation never charges simulated work: every -trace/-profile/
// -heap/-spans flag leaves the makespan and all other simulated
// numbers unchanged. Every observer flag attaches one consumer of the
// run's single event stream; consumers never see each other, so an
// artifact is the same whether its flag is given alone or with all the
// others. -trace N bounds only the stderr timeline; an artifact written
// from a recorder that hit its obsv.MaxEvents cap (4,000,000 events)
// is reported on stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"amplify/internal/alloc"
	"amplify/internal/alloctrace"
	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/heapobsv"
	"amplify/internal/obsv"
	"amplify/internal/sim"
	"amplify/internal/target"
	"amplify/internal/telemetry"
	"amplify/internal/vet"
	"amplify/internal/vm"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mccrun:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run executes the program and writes every requested artifact. The
// int is the simulated program's exit code; any error — including a
// failed artifact write after a successful run — makes mccrun exit
// non-zero instead of silently reporting the program's status.
func run(args []string) (int, error) {
	fs := flag.NewFlagSet("mccrun", flag.ExitOnError)
	allocName := fs.String("alloc", "serial", "allocator: serial | ptmalloc | hoard | smartheap | lkmalloc | lfalloc")
	procs := fs.Int("procs", 8, "simulated processors")
	amplify := fs.Bool("amplify", false, "pre-process with Amplify before running")
	arraysOnly := fs.Bool("arrays-only", false, "with -amplify: only shadow data arrays")
	mode := fs.String("mode", "shadow", "with -amplify: shadow | flag")
	noOpt := fs.Bool("no-opt", false, "disable the bytecode optimizer")
	stats := fs.Bool("stats", false, "print execution statistics to stderr")
	trace := fs.Int("trace", 0, "print the first N simulation events to stderr (bounds only this timeline)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file of the run")
	traceJSONL := fs.String("trace-jsonl", "", "write the simulation events as compact JSON lines")
	profileOut := fs.String("profile-out", "", "write folded stacks of simulated cycles; per-lock profile goes to <file>.locks")
	heapTimeline := fs.String("heap-timeline", "", "write a virtual-time heap timeline; JSONL, or CSV when the file ends in .csv")
	heapInterval := fs.Int64("heap-interval", heapobsv.DefaultInterval, "heap-timeline sampling period in cycles")
	heapProfile := fs.String("heap-profile", "", "write folded stacks of allocated bytes per MiniCC site; per-site table goes to <file>.sites")
	recordTrace := fs.String("record-trace", "", "write the allocator request stream as a binary allocation trace; JSONL mirror goes to <file>.jsonl")
	metricsOut := fs.String("metrics", "", "write a JSON metrics snapshot of the run (use - for stderr)")
	spansOut := fs.String("spans", "", "write a JSONL span stream of the pipeline phases (use - for stderr)")
	vetFirst := fs.Bool("vet", false, "lint the program before running; refuse to run on errors")
	escape := fs.Bool("escape", false, "with -amplify: apply the escape-analysis-driven rewrites")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mccrun [flags] program.mcc  (use - for stdin)")
		fs.PrintDefaults()
		os.Exit(2)
	}
	// Fail fast on a typo'd allocator name, or on a flag the
	// chosen configuration would ignore — before the program is read,
	// parsed or simulated — with the valid choices.
	if err := alloc.Valid(*allocName); err != nil {
		return 0, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !*amplify {
		switch {
		case *escape:
			return 0, fmt.Errorf("-escape needs -amplify (it selects which rewrites the pre-processor applies)")
		case *arraysOnly:
			return 0, fmt.Errorf("-arrays-only needs -amplify (it selects which arrays the pre-processor shadows)")
		case set["mode"]:
			return 0, fmt.Errorf("-mode needs -amplify (it selects shadow pointers or logical-delete flags)")
		}
	}
	switch {
	case *trace < 0:
		return 0, fmt.Errorf("-trace must not be negative (got %d)", *trace)
	case *heapInterval <= 0:
		return 0, fmt.Errorf("-heap-interval must be positive (got %d)", *heapInterval)
	case set["heap-interval"] && *heapTimeline == "":
		return 0, fmt.Errorf("-heap-interval needs -heap-timeline (it sets that timeline's sampling period)")
	}
	// The span recorder is nil unless requested; every Start/Set/End
	// below is a no-op then, so the hot path carries no bookkeeping.
	var spans *telemetry.Recorder
	if *spansOut != "" || *traceOut != "" || *metricsOut != "" {
		spans = telemetry.NewRecorder()
	}
	root := spans.Start("mccrun")
	sp := spans.Start("read")
	src, err := readInput(fs.Arg(0))
	sp.Set("src_bytes", int64(len(src))).End()
	if err != nil {
		return 0, err
	}
	// One parse serves the whole run: -vet checks the tree (an -escape
	// rewrite reuses the escape analysis Check ran on it), -amplify
	// rewrites it and hands back the analyzed tree of its output, and
	// the VM runs whichever tree results.
	sp = spans.Start("parse").Set("src_bytes", int64(len(src)))
	prog, err := cc.Parse(src)
	sp.End()
	if err != nil {
		return 0, err
	}
	sp = spans.Start("sema")
	err = cc.Analyze(prog)
	sp.End()
	if err != nil {
		return 0, err
	}
	if *vetFirst {
		sp := spans.Start("vet")
		res := vet.Check(prog)
		fmt.Fprint(os.Stderr, res.String())
		if res.HasErrors() {
			errs, _ := res.Counts()
			return 0, fmt.Errorf("vet found %d errors; refusing to run", errs)
		}
		// The program is clean, so also print what the interprocedural
		// analysis concluded about its allocation sites.
		fmt.Fprint(os.Stderr, vet.Escape(prog).String())
		sp.End()
	}
	if *amplify {
		sp := spans.Start("amplify")
		opt := core.Options{ArraysOnly: *arraysOnly, Mode: core.Mode(*mode), Escape: *escape}
		transformed, tree, rep, err := core.RewriteProgram(prog, opt)
		if err != nil {
			return 0, err
		}
		sp.Set("out_bytes", int64(len(transformed))).End()
		prog = tree
		if *stats {
			fmt.Fprint(os.Stderr, rep.String())
		}
	}
	// The observation set holds one consumer per observer flag; the
	// -trace timeline has a recorder of its own, so its bound never
	// truncates the exported artifacts.
	obs := &obsv.Set{Procs: *procs, Spans: spans, Warn: log.New(os.Stderr, "mccrun: ", 0)}
	if *trace > 0 {
		obs.Head = &sim.Recorder{Max: *trace}
	}
	if *traceOut != "" || *traceJSONL != "" || *profileOut != "" {
		obs.Events = &sim.Recorder{Max: obsv.MaxEvents}
	}
	if *profileOut != "" {
		obs.Profile = obsv.NewProfiler()
	}
	if *heapTimeline != "" {
		obs.Heap = &heapobsv.Timeline{Interval: *heapInterval}
	}
	if *heapProfile != "" {
		obs.Sites = heapobsv.NewSiteProfile()
	}
	if *recordTrace != "" {
		obs.Allocs = alloctrace.NewRecorder(fs.Arg(0))
	}
	// After -amplify the tree is the rewritten source's, so its
	// positions name the printed program's sites.
	cfg := target.Config{Processors: *procs, Strategy: *allocName, Tracer: obs.Tracer()}
	res, err := runVM(prog, vm.Options{NoOpt: *noOpt}, cfg, spans)
	if err != nil {
		return 0, err
	}
	root.End()
	obs.Finish(res.Makespan)
	if obs.Head != nil {
		fmt.Fprint(os.Stderr, obs.Head.Timeline())
	}
	// The program's output is printed before the artifacts are written,
	// so a failed export never swallows it; a failed stdout write (full
	// disk, closed pipe) is itself an error, not a silent exit 0.
	if _, err := io.WriteString(os.Stdout, res.Output); err != nil {
		return 0, fmt.Errorf("writing program output: %w", err)
	}
	for _, f := range []struct {
		flag, suffix string
		art          obsv.Artifact
	}{
		{*spansOut, "", obsv.SpansJSONL},
		{*traceOut, "", obsv.ChromeJSON},
		{*traceJSONL, "", obsv.EventsJSONL},
		{*profileOut, "", obsv.CycleStacks},
		{*profileOut, ".locks", obsv.LockTable},
		{*heapTimeline, "", obsv.HeapTimeline},
		{*heapProfile, "", obsv.SiteStacks},
		{*heapProfile, ".sites", obsv.SiteTable},
		{*recordTrace, "", obsv.AllocTrace},
	} {
		if f.flag != "" {
			if err := obs.Write(f.flag+f.suffix, f.art); err != nil {
				return 0, err
			}
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, res, spans); err != nil {
			return 0, err
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "execution statistics (vm engine)")
		fmt.Fprintf(os.Stderr, "  makespan:        %d cycles\n", res.Makespan)
		fmt.Fprintf(os.Stderr, "  heap allocs:     %d (frees %d)\n", res.Alloc.Allocs, res.Alloc.Frees)
		fmt.Fprintf(os.Stderr, "  pool hits:       %d (misses %d)\n", res.PoolHits, res.PoolMisses)
		fmt.Fprintf(os.Stderr, "  shadow reuses:   %d\n", res.ShadowReuses)
		fmt.Fprintf(os.Stderr, "  lock acquires:   %d (contended %d)\n", res.Sim.LockAcquires, res.Sim.LockContended)
		fmt.Fprintf(os.Stderr, "  cache misses:    %d (hits %d)\n", res.Sim.CacheMisses, res.Sim.CacheHits)
		fmt.Fprintf(os.Stderr, "  atomic ops:      %d CAS (%d failed), %d FAA, %d loads, %d stores\n",
			res.Sim.AtomicCAS, res.Sim.AtomicCASFailed, res.Sim.AtomicFAA, res.Sim.AtomicLoads, res.Sim.AtomicStores)
		fmt.Fprintf(os.Stderr, "  footprint:       %d bytes\n", res.Footprint)
	}
	return int(res.ExitCode), nil
}

// runVM compiles and runs an analyzed program on the bytecode VM,
// recording each phase as a span: compile and simulate.
func runVM(prog *cc.Program, opt vm.Options, cfg target.Config, spans *telemetry.Recorder) (target.Result, error) {
	sp := spans.Start("compile")
	p, err := vm.CompileOpts(prog, opt)
	if err != nil {
		sp.End()
		return target.Result{}, err
	}
	sp.Set("functions", int64(len(p.Fns))).End()
	sp = spans.Start("simulate")
	defer sp.End()
	res, err := vm.Run(p, cfg)
	if err != nil {
		return res, err
	}
	sp.Set("makespan", res.Makespan).
		Set("allocs", res.Alloc.Allocs).
		Set("footprint", res.Footprint)
	return res, nil
}

// writeMetrics writes the run's counters and the deterministic side of
// its spans as one JSON object with sorted keys; "-" routes it to
// stderr, keeping the simulated program's stdout byte-diffable.
func writeMetrics(path string, res target.Result, spans *telemetry.Recorder) error {
	m := map[string]int64{
		"makespan":                res.Makespan,
		"alloc.allocs":            res.Alloc.Allocs,
		"alloc.frees":             res.Alloc.Frees,
		"alloc.peak_bytes":        res.Alloc.PeakBytes,
		"pool.hits":               res.PoolHits,
		"pool.misses":             res.PoolMisses,
		"shadow.reuses":           res.ShadowReuses,
		"sim.lock.acquires":       res.Sim.LockAcquires,
		"sim.lock.contended":      res.Sim.LockContended,
		"sim.lock.wait_cycles":    res.Sim.LockWaitTime,
		"sim.cache.hits":          res.Sim.CacheHits,
		"sim.cache.misses":        res.Sim.CacheMisses,
		"sim.cache.invalidations": res.Sim.CacheInvalidations,
		"sim.cache.rfos":          res.Sim.CacheRFOs,
		"sim.atomic.cas":          res.Sim.AtomicCAS,
		"sim.atomic.cas_failed":   res.Sim.AtomicCASFailed,
		"sim.atomic.faa":          res.Sim.AtomicFAA,
		"sim.atomic.loads":        res.Sim.AtomicLoads,
		"sim.atomic.stores":       res.Sim.AtomicStores,
		"sim.migrations":          res.Sim.Migrations,
		"footprint.bytes":         res.Footprint,
	}
	spans.AddTo(m)
	out, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return obsv.WriteJSON(path, out)
}

func readInput(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
