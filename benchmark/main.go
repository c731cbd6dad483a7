// Command benchmark is the repository benchmark. It runs one workload
// as a closed loop (one goroutine issuing one op after another, each op
// a call chain into the public API of the layers under test), checks
// every result, and prints the metrics declared in BENCHMARK.json as a
// JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// alternates untraced and traced passes, records one span per layer
// call, prints the per-layer metrics and a self-time table, and writes
// the spans to .bench_build/trace/NAME.spans.jsonl and a Chrome trace
// to .bench_build/trace/NAME.chrome.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"amplify/internal/obsv"
	"amplify/internal/telemetry"
)

// procs is the number of OS threads running Go code. It is fixed rather
// than taken from the host, because before Go 1.25 GOMAXPROCS ignores a
// container's CPU quota. One is enough: the simulator runs one simulated
// thread at a time, handing a baton between goroutines, and on one OS
// thread those handoffs run at the speed the calibration loop measures.
// With two, handoffs between OS threads made threaded simulations twice
// as noisy relative to the calibration.
const procs = 1

// setupReps is the fewest set-ups a run makes; setup_s is their median.
const setupReps = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // receives the span stream and Chrome trace of a traced run
	small    bool   // tiny inputs, for the package test
}

// report is one run's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o := options{traceDir: ".bench_build/trace"}
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	flag.Int64Var(&o.seed, "seed", 1, "seed that orders the ops of every pass")
	flag.Float64Var(&o.seconds, "seconds", 10, "run whole passes over the op list until this many seconds have passed")
	trace := flag.Int("trace", 0, "1: record layer spans and print the per-layer metrics; 0: print the end-to-end metrics")
	flag.Parse()
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *trace == 1
	runtime.GOMAXPROCS(procs)

	rep, info, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(info)
	fmt.Println(string(line))
}

// bench executes ops and keeps the checks: every op's outcome must be
// identical to its first one, and any error or failed check counts as a
// failed op and is logged.
type bench struct {
	ops       []op
	first     []*outcome
	execs     []int
	attempted int
	failed    int
	log       io.Writer
	// calTable is the calibration work's scratch table; calSum keeps the
	// work observable so the compiler cannot drop it.
	calTable map[uint32]uint32
	calSum   uint32
}

func (b *bench) do(i int, x exec) time.Duration {
	root := x.rec.Start("bench.op").Set("op", int64(i))
	t0 := time.Now()
	o, err := b.ops[i].run(x)
	d := time.Since(t0)
	root.End()
	// Collect the op's garbage before the next op starts, so no op pays
	// for another's and the heap's high-water mark does not depend on
	// where the collector happened to run.
	runtime.GC()
	b.attempted++
	b.execs[i]++
	if err == nil {
		err = b.check(i, o)
	}
	if err != nil {
		b.fail(i, 1, err)
	}
	return d
}

func (b *bench) check(i int, o outcome) error {
	if o.exit != 0 {
		return fmt.Errorf("program exited with %d", o.exit)
	}
	if b.first[i] == nil {
		b.first[i] = &o
		return nil
	}
	if *b.first[i] != o {
		return fmt.Errorf("simulated result differs from the op's first run (makespan %d, first %d)",
			o.runs[0].makespan, b.first[i].runs[0].makespan)
	}
	return nil
}

func (b *bench) fail(i, n int, err error) {
	b.failed += n
	fmt.Fprintf(b.log, "FAIL %s: %v\n", b.ops[i].name, err)
}

// checkTwins compares each amplified op's program output with its plain
// twin's; a mismatch fails every run of the amplified op.
func (b *bench) checkTwins() {
	for i, o := range b.ops {
		if o.twin < 0 || b.first[i] == nil || b.first[o.twin] == nil {
			continue
		}
		if b.first[i].output != b.first[o.twin].output {
			b.fail(i, b.execs[i], fmt.Errorf("output differs from %s", b.ops[o.twin].name))
		}
	}
}

// setUp generates the workload's inputs and warms up the first op of
// each kind. It returns how long that took.
func (b *bench) setUp(setup setupFunc, x exec, small bool) (float64, error) {
	t0 := time.Now()
	s := x.rec.Start("bench.setup")
	defer s.End()
	ops, err := setup(x, small)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	if b.ops == nil {
		b.first = make([]*outcome, len(ops))
		b.execs = make([]int, len(ops))
	}
	b.ops = ops
	warmed := map[string]bool{}
	for i, op := range ops {
		if !warmed[op.kind] {
			warmed[op.kind] = true
			b.do(i, x)
		}
	}
	return time.Since(t0).Seconds(), nil
}

// sample is one timed op: its latency and the calibration time measured
// just before it, both in milliseconds.
type sample struct{ ms, cal float64 }

// pass runs every op once, in the given order, calibrating before each.
func (b *bench) pass(order []int, x exec) []sample {
	out := make([]sample, 0, len(order))
	for _, i := range order {
		cal := b.calibrate()
		out = append(out, sample{b.do(i, x).Seconds() * 1e3, cal})
	}
	return out
}

// calibrate times a fixed piece of work that calls no package under
// test and returns it in milliseconds: hashing into a table, then
// building and walking small binary trees, about 1 ms in all. On a
// shared host the machine's speed drifts by tens of percent within
// minutes; the op timed right after runs at about the same speed, so
// dividing by this time cancels most of the drift. The work mixes
// cache-resident arithmetic with allocation because the ops do both.
func (b *bench) calibrate() float64 {
	if b.calTable == nil {
		b.calTable = make(map[uint32]uint32, 4096)
	}
	t0 := time.Now()
	clear(b.calTable)
	x := uint32(1)
	for i := 0; i < 40000; i++ {
		x = x*1664525 + 1013904223
		b.calTable[x>>20] += x
		b.calSum += b.calTable[(x>>8)&4095]
	}
	for i := uint32(0); i < 6; i++ {
		b.calSum += calTree(10, x+i).sum()
	}
	return time.Since(t0).Seconds() * 1e3
}

type calNode struct {
	left, right *calNode
	v           uint32
}

func calTree(depth int, v uint32) *calNode {
	n := &calNode{v: v}
	if depth > 0 {
		n.left, n.right = calTree(depth-1, 2*v), calTree(depth-1, 2*v+1)
	}
	return n
}

func (n *calNode) sum() uint32 {
	if n == nil {
		return 0
	}
	return n.v + n.left.sum() + n.right.sum()
}

// run alternates set-ups and whole passes over the op list, each pass
// in a seeded random order, until the passes add up to o.seconds. Set-up
// is repeated before every pass, so the set-up times sample the same
// stretch of host time as the ops do.
func run(o options, log io.Writer) (report, string, error) {
	var setup setupFunc
	for _, w := range workloads {
		if w.name == o.workload {
			setup = w.setup
		}
	}
	if setup == nil {
		return report{}, "", fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	var rec *telemetry.Recorder
	if o.trace {
		rec = telemetry.NewRecorder()
	}
	b := &bench{log: log}
	var setups []float64
	var samples [2][]sample // from untraced and traced passes
	var timed time.Duration
	rng := rand.New(rand.NewSource(o.seed))
	passes := 0
	for passes == 0 || timed.Seconds() < o.seconds {
		s, err := b.setUp(setup, exec{rec}, o.small)
		if err != nil {
			return report{}, "", err
		}
		setups = append(setups, s)
		order := rng.Perm(len(b.ops))
		// A traced run pairs an untraced and a traced pass over the same
		// order, alternating which goes first; comparing the two gives
		// the tracing overhead.
		modes := []int{0}
		if o.trace {
			modes = []int{passes / 2 % 2, 1 - passes/2%2}
		}
		for _, traced := range modes {
			x := exec{}
			if traced == 1 {
				x.rec = rec
			}
			t0 := time.Now()
			samples[traced] = append(samples[traced], b.pass(order, x)...)
			timed += time.Since(t0)
			passes++
		}
	}
	for len(setups) < setupReps {
		s, err := b.setUp(setup, exec{rec}, o.small)
		if err != nil {
			return report{}, "", err
		}
		setups = append(setups, s)
	}
	b.checkTwins()

	rep := report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	var values map[string]float64
	var defs []metricDef
	if o.trace {
		if err := writeTrace(rec, o.traceDir, o.workload); err != nil {
			return report{}, "", err
		}
		layers := layerTimes(rec.Spans())
		fmt.Fprint(log, layers.table())
		values = perLayerValues(b, layers, samples)
		defs = perLayer
	} else {
		rss, err := peakRSS()
		if err != nil {
			return report{}, "", err
		}
		values = endToEndValues(b, samples[0], setups, rss)
		defs = endToEnd
	}
	rep.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	info := fmt.Sprintf("# workload=%s seed=%d gomaxprocs=%d setups=%d passes=%d ops_per_pass=%d latency_samples=%d timed_s=%.3f",
		o.workload, o.seed, runtime.GOMAXPROCS(0), len(setups), passes, len(b.ops), len(samples[0]), timed.Seconds())
	return rep, info, nil
}

func writeTrace(rec *telemetry.Recorder, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	chrome, err := obsv.ChromeTraceSpans(nil, 0, rec.Spans())
	if err != nil {
		return err
	}
	base := filepath.Join(dir, name)
	if err := os.WriteFile(base+".spans.jsonl", rec.JSONL(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".chrome.json", chrome, 0o644)
}

// peakRSS is the process's resident-set high-water mark in MiB.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
