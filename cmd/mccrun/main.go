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
//	-engine e     execution engine: vm (bytecode dispatch loop, default) |
//	              ast (tree-walking reference)
//	-procs n      simulated processors (default 8)
//	-amplify      run the Amplify pre-processor before executing
//	-arrays-only  with -amplify: only shadow data-type arrays
//	-mode m       with -amplify: shadow | flag
//	-no-opt       with the vm engine: disable the bytecode optimizer
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
//	              cycles to MiniCC functions (vm engine only); the
//	              per-lock contention profile goes to f.locks
//	-heap-timeline f write a virtual-time heap timeline (vm engine only):
//	              footprint, live/free bytes, fragmentation, pool
//	              retention — JSONL by default, CSV when f ends in .csv
//	-heap-interval n sampling period of -heap-timeline in cycles
//	              (positive; only with -heap-timeline)
//	-heap-profile f write pprof-style folded stacks attributing allocated
//	              bytes to MiniCC allocation sites (vm engine only); a
//	              per-site table goes to f.sites
//	-record-trace f write the run's allocator request stream as a binary
//	              allocation trace (internal/alloctrace format, vm engine
//	              only) with a JSONL mirror at f.jsonl; replay it through
//	              any allocator with mcctrace replay
//	-metrics f    write a JSON metrics snapshot of the run, including
//	              per-span counters; use - for stderr
//	-spans f      write a JSONL span stream of the whole pipeline (read
//	              -> vet -> amplify -> parse -> sema -> compile ->
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
// from a recorder that hit its 4,000,000-event cap is reported on
// stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"amplify/internal/alloc"
	"amplify/internal/alloctrace"
	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/heapobsv"
	"amplify/internal/interp"
	"amplify/internal/obsv"
	"amplify/internal/sim"
	"amplify/internal/telemetry"
	"amplify/internal/vet"
	"amplify/internal/vm"
)

// runResult is the engine-independent result view.
type runResult struct {
	output               string
	exitCode             int64
	makespan             int64
	alloc                alloc.Stats
	poolHits, poolMisses int64
	shadowReuses         int64
	sim                  sim.Stats
	footprint            int64
}

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
	engine := fs.String("engine", "vm", "execution engine: vm (bytecode dispatch loop) | ast (tree-walking)")
	procs := fs.Int("procs", 8, "simulated processors")
	amplify := fs.Bool("amplify", false, "pre-process with Amplify before running")
	arraysOnly := fs.Bool("arrays-only", false, "with -amplify: only shadow data arrays")
	mode := fs.String("mode", "shadow", "with -amplify: shadow | flag")
	noOpt := fs.Bool("no-opt", false, "with -engine vm: disable the bytecode optimizer")
	stats := fs.Bool("stats", false, "print execution statistics to stderr")
	trace := fs.Int("trace", 0, "print the first N simulation events to stderr (bounds only this timeline)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file of the run")
	traceJSONL := fs.String("trace-jsonl", "", "write the simulation events as compact JSON lines")
	profileOut := fs.String("profile-out", "", "write folded stacks of simulated cycles (vm engine only); per-lock profile goes to <file>.locks")
	heapTimeline := fs.String("heap-timeline", "", "write a virtual-time heap timeline (vm engine only); JSONL, or CSV when the file ends in .csv")
	heapInterval := fs.Int64("heap-interval", heapobsv.DefaultInterval, "heap-timeline sampling period in cycles")
	heapProfile := fs.String("heap-profile", "", "write folded stacks of allocated bytes per MiniCC site (vm engine only); per-site table goes to <file>.sites")
	recordTrace := fs.String("record-trace", "", "write the allocator request stream as a binary allocation trace (vm engine only); JSONL mirror goes to <file>.jsonl")
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
	// Fail fast on a typo'd allocator or engine name, or on a flag the
	// chosen configuration would ignore — before the program is read,
	// parsed or simulated — with the valid choices.
	if err := alloc.Valid(*allocName); err != nil {
		return 0, err
	}
	if *engine != "vm" && *engine != "ast" {
		return 0, fmt.Errorf("unknown engine %q (want vm or ast)", *engine)
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
	if *engine == "ast" {
		if *noOpt {
			return 0, fmt.Errorf("-no-opt needs -engine vm (the ast engine has no bytecode optimizer)")
		}
		for _, f := range []struct{ name, val string }{
			{"-profile-out", *profileOut},
			{"-heap-timeline", *heapTimeline},
			{"-heap-profile", *heapProfile},
			{"-record-trace", *recordTrace},
		} {
			if f.val != "" {
				return 0, fmt.Errorf("%s needs -engine vm (the ast engine does not feed this observer)", f.name)
			}
		}
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
	if *vetFirst {
		sp := spans.Start("vet")
		// One parse and one analysis serve both reports; Escape reuses
		// the escape analysis Check ran on the same tree.
		prog, err := cc.Parse(src)
		if err == nil {
			err = cc.Analyze(prog)
		}
		if err != nil {
			return 0, err
		}
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
		transformed, rep, err := core.Rewrite(src, core.Options{
			ArraysOnly: *arraysOnly,
			Mode:       core.Mode(*mode),
			Escape:     *escape,
		})
		if err != nil {
			return 0, err
		}
		sp.Set("out_bytes", int64(len(transformed))).End()
		src = transformed
		if *stats {
			fmt.Fprint(os.Stderr, rep.String())
		}
	}
	// Every consumer below is a sim.Tracer; nil ones are dropped when
	// they are composed into the run's one event stream. The -trace
	// timeline has a recorder of its own, so its bound never truncates
	// the exported artifacts.
	var timelineRec, rec *sim.Recorder
	if *trace > 0 {
		timelineRec = &sim.Recorder{Max: *trace}
	}
	if *traceOut != "" || *traceJSONL != "" || *profileOut != "" {
		rec = &sim.Recorder{Max: maxEvents}
	}
	var prof *obsv.Profiler
	if *profileOut != "" {
		prof = obsv.NewProfiler()
	}
	var timeline *heapobsv.Timeline
	if *heapTimeline != "" {
		timeline = &heapobsv.Timeline{Interval: *heapInterval}
	}
	var sites *heapobsv.SiteProfile
	if *heapProfile != "" {
		sites = heapobsv.NewSiteProfile()
	}
	var recorder *alloctrace.Recorder
	if *recordTrace != "" {
		recorder = alloctrace.NewRecorder(fs.Arg(0))
	}
	tracer := sim.NewTee(timelineRec, rec, prof, timeline, sites, recorder)
	var res runResult
	switch *engine {
	case "ast":
		r, err := interp.RunSource(src, interp.Config{Processors: *procs, Strategy: *allocName, Tracer: tracer})
		if err != nil {
			return 0, err
		}
		res = runResult{r.Output, r.ExitCode, r.Makespan, r.Alloc,
			r.PoolHits, r.PoolMisses, r.ShadowReuses, r.Sim, r.Footprint}
	case "vm":
		r, err := vm.RunSource(src, vm.Config{Processors: *procs, Strategy: *allocName, NoOpt: *noOpt, Spans: spans, Tracer: tracer})
		if err != nil {
			return 0, err
		}
		res = runResult{r.Output, r.ExitCode, r.Makespan, r.Alloc,
			r.PoolHits, r.PoolMisses, r.ShadowReuses, r.Sim, r.Footprint}
	}
	root.End()
	if timelineRec != nil {
		fmt.Fprint(os.Stderr, timelineRec.Timeline())
	}
	// The program's output is printed before the artifacts are written,
	// so a failed export never swallows it; a failed stdout write (full
	// disk, closed pipe) is itself an error, not a silent exit 0.
	if _, err := io.WriteString(os.Stdout, res.output); err != nil {
		return 0, fmt.Errorf("writing program output: %w", err)
	}
	if err := writeArtifacts(rec, prof, timeline, sites, spans, res, *procs,
		*traceOut, *traceJSONL, *profileOut, *heapTimeline, *heapProfile, *metricsOut, *spansOut); err != nil {
		return 0, err
	}
	if *recordTrace != "" {
		tr := recorder.Trace()
		if err := tr.Validate(); err != nil {
			return 0, fmt.Errorf("recorded trace failed validation: %w", err)
		}
		if err := os.WriteFile(*recordTrace, tr.Encode(), 0o644); err != nil {
			return 0, err
		}
		if err := os.WriteFile(*recordTrace+".jsonl", tr.JSONL(), 0o644); err != nil {
			return 0, err
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "execution statistics (%s engine)\n", *engine)
		fmt.Fprintf(os.Stderr, "  makespan:        %d cycles\n", res.makespan)
		fmt.Fprintf(os.Stderr, "  heap allocs:     %d (frees %d)\n", res.alloc.Allocs, res.alloc.Frees)
		fmt.Fprintf(os.Stderr, "  pool hits:       %d (misses %d)\n", res.poolHits, res.poolMisses)
		fmt.Fprintf(os.Stderr, "  shadow reuses:   %d\n", res.shadowReuses)
		fmt.Fprintf(os.Stderr, "  lock acquires:   %d (contended %d)\n", res.sim.LockAcquires, res.sim.LockContended)
		fmt.Fprintf(os.Stderr, "  cache misses:    %d (hits %d)\n", res.sim.CacheMisses, res.sim.CacheHits)
		fmt.Fprintf(os.Stderr, "  atomic ops:      %d CAS (%d failed), %d FAA, %d loads, %d stores\n",
			res.sim.AtomicCAS, res.sim.AtomicCASFailed, res.sim.AtomicFAA, res.sim.AtomicLoads, res.sim.AtomicStores)
		fmt.Fprintf(os.Stderr, "  footprint:       %d bytes\n", res.footprint)
	}
	return int(res.exitCode), nil
}

// writeArtifacts emits the requested observability files. Every JSON
// artifact is checked with json.Valid before it reaches disk.
func writeArtifacts(rec *sim.Recorder, prof *obsv.Profiler, timeline *heapobsv.Timeline, sites *heapobsv.SiteProfile,
	spans *telemetry.Recorder, res runResult, procs int,
	traceOut, traceJSONL, profileOut, heapTimeline, heapProfile, metricsOut, spansOut string) error {
	var events []sim.Event
	if rec != nil {
		events = rec.Snapshot()
	}
	if spansOut != "" {
		out := spans.JSONL()
		if spansOut == "-" {
			if _, err := os.Stderr.Write(out); err != nil {
				return err
			}
		} else if err := os.WriteFile(spansOut, out, 0o644); err != nil {
			return err
		}
	}
	if traceOut != "" {
		out, err := obsv.ChromeTraceSpans(events, procs, spans.Spans())
		if err != nil {
			return err
		}
		if !json.Valid(out) {
			return fmt.Errorf("trace export produced invalid JSON")
		}
		if err := os.WriteFile(traceOut, out, 0o644); err != nil {
			return err
		}
		warnDropped(os.Stderr, rec, traceOut)
	}
	if traceJSONL != "" {
		out, err := obsv.JSONL(events)
		if err != nil {
			return err
		}
		if err := os.WriteFile(traceJSONL, out, 0o644); err != nil {
			return err
		}
		warnDropped(os.Stderr, rec, traceJSONL)
	}
	if profileOut != "" {
		prof.Finish(res.makespan)
		if err := os.WriteFile(profileOut, []byte(prof.Folded()), 0o644); err != nil {
			return err
		}
		locks := obsv.FormatLockProfile(obsv.LockProfile(events))
		if err := os.WriteFile(profileOut+".locks", []byte(locks), 0o644); err != nil {
			return err
		}
		warnDropped(os.Stderr, rec, profileOut+".locks")
	}
	if heapTimeline != "" {
		timeline.Finish(res.makespan)
		out := timeline.JSONL()
		if strings.HasSuffix(heapTimeline, ".csv") {
			out = timeline.CSV()
		}
		if err := os.WriteFile(heapTimeline, out, 0o644); err != nil {
			return err
		}
	}
	if heapProfile != "" {
		folded := sites.Folded(heapobsv.MetricAllocBytes)
		if err := os.WriteFile(heapProfile, []byte(folded), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(heapProfile+".sites", []byte(sites.Table()), 0o644); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		reg := obsv.NewRegistry()
		reg.Set("makespan", res.makespan)
		reg.Set("alloc.allocs", res.alloc.Allocs)
		reg.Set("alloc.frees", res.alloc.Frees)
		reg.Set("alloc.peak_bytes", res.alloc.PeakBytes)
		reg.Set("pool.hits", res.poolHits)
		reg.Set("pool.misses", res.poolMisses)
		reg.Set("shadow.reuses", res.shadowReuses)
		reg.Set("sim.lock.acquires", res.sim.LockAcquires)
		reg.Set("sim.lock.contended", res.sim.LockContended)
		reg.Set("sim.lock.wait_cycles", res.sim.LockWaitTime)
		reg.Set("sim.cache.hits", res.sim.CacheHits)
		reg.Set("sim.cache.misses", res.sim.CacheMisses)
		reg.Set("sim.cache.invalidations", res.sim.CacheInvalidations)
		reg.Set("sim.cache.rfos", res.sim.CacheRFOs)
		reg.Set("sim.atomic.cas", res.sim.AtomicCAS)
		reg.Set("sim.atomic.cas_failed", res.sim.AtomicCASFailed)
		reg.Set("sim.atomic.faa", res.sim.AtomicFAA)
		reg.Set("sim.atomic.loads", res.sim.AtomicLoads)
		reg.Set("sim.atomic.stores", res.sim.AtomicStores)
		reg.Set("sim.migrations", res.sim.Migrations)
		reg.Set("footprint.bytes", res.footprint)
		spans.AddTo(reg)
		out, err := reg.JSON()
		if err != nil {
			return err
		}
		if !json.Valid(out) {
			return fmt.Errorf("metrics export produced invalid JSON")
		}
		// "-" routes the snapshot to stderr, keeping the simulated
		// program's stdout byte-diffable against a recorded run.
		if metricsOut == "-" {
			if _, err := os.Stderr.Write(out); err != nil {
				return err
			}
		} else if err := os.WriteFile(metricsOut, out, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// maxEvents bounds the recorder behind -trace-out, -trace-jsonl and
// -profile-out's lock table.
const maxEvents = 4_000_000

// warnDropped prints one line when an artifact is written from a
// recorder that hit its bound, so a truncated export never passes for
// a complete one.
func warnDropped(w io.Writer, rec *sim.Recorder, path string) {
	if rec.Dropped > 0 {
		fmt.Fprintf(w, "mccrun: %s: the event recorder kept its first %d events and dropped %d; the artifact is truncated\n",
			path, len(rec.Events), rec.Dropped)
	}
}

func readInput(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
