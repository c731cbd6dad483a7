package main

import (
	"fmt"
	"sort"
	"strings"

	"amplify/internal/alloc"
	"amplify/internal/alloctrace"
	"amplify/internal/bgw"
	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/sim"
	"amplify/internal/telemetry"
	"amplify/internal/vet"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

// exec issues an op's calls into the layers. Each call is wrapped in a
// span named after the layer; the span names are the per-layer metric
// prefixes. In an untraced pass rec is nil and every span is a no-op.
type exec struct {
	rec *telemetry.Recorder
}

// simRun is what one simulation reports. Every field is deterministic:
// a simulation repeats exactly, so an op's outcome must too.
type simRun struct {
	makespan, footprint                int64
	alloc                              alloc.Stats
	heapReq, heapGranted               int64
	freeBytes, largestFree             int64
	poolHits, poolMisses, shadowReuses int64
	stats                              sim.Stats
}

func newSimRun(makespan, footprint int64, a alloc.Stats, h alloc.HeapInfo, st sim.Stats) simRun {
	return simRun{makespan: makespan, footprint: footprint, alloc: a,
		heapReq: h.ReqBytes, heapGranted: h.GrantedBytes,
		freeBytes: h.FreeBytes, largestFree: h.LargestFree, stats: st}
}

// events is the simulator's work measure: cache accesses plus lock
// acquisitions, as the scale experiment counts it.
func (r simRun) events() int64 {
	return r.stats.CacheHits + r.stats.CacheMisses + r.stats.LockAcquires
}

// outcome is everything an op produced that a later run of the same op
// must reproduce. It is comparable, so a repeat check is one ==.
type outcome struct {
	runs  [2]simRun // the plain program, then the amplified one when an op runs both
	nruns int
	// output is the program's printed lines, sorted (thread interleaving
	// may differ between a plain program and its rewrite); exit is its
	// exit code.
	output string
	exit   int64
	// Front-end counters.
	diagnostics           int64
	rewrites              int64
	rewriteIn, rewriteOut int64 // source bytes into and out of the rewrite
	instrs                int64
}

func (o *outcome) add(r simRun) {
	o.runs[o.nruns] = r
	o.nruns++
}

// parse runs the front end: lexing and parsing, then semantic analysis.
func (x exec) parse(src string) (*cc.Program, error) {
	s := x.rec.Start("cc.parse").Set("bytes", int64(len(src)))
	prog, err := cc.Parse(src)
	s.End()
	if err != nil {
		return nil, err
	}
	s = x.rec.Start("cc.sema")
	err = cc.Analyze(prog)
	s.End()
	return prog, err
}

func (x exec) vet(prog *cc.Program) *vet.Result {
	s := x.rec.Start("vet.check")
	res := vet.Check(prog)
	s.Set("diagnostics", int64(len(res.Diags))).End()
	return res
}

func (x exec) escape(prog *cc.Program) {
	s := x.rec.Start("vet.escape")
	rep := vet.Escape(prog)
	s.Set("sites", int64(len(rep.Sites))).End()
}

func (x exec) rewrite(src string, opt core.Options, o *outcome) (string, error) {
	s := x.rec.Start("core.rewrite")
	out, rep, err := core.Rewrite(src, opt)
	s.Set("out_bytes", int64(len(out))).End()
	if err != nil {
		return "", err
	}
	o.rewrites += int64(rep.DeleteRewrites + rep.NewRewrites + rep.ArrayNewRewrites +
		rep.ArrayDeleteRewrites + rep.FramePromoted)
	o.rewriteIn += int64(len(src))
	o.rewriteOut += int64(len(out))
	return out, nil
}

func (x exec) compile(prog *cc.Program, o *outcome) (*vm.Program, error) {
	s := x.rec.Start("vm.compile")
	p, err := vm.CompileOpts(prog, vm.Options{})
	if err != nil {
		s.End()
		return nil, err
	}
	var n int64
	for _, fn := range p.Fns {
		n += int64(len(fn.Code))
	}
	s.Set("instrs", n).End()
	o.instrs += n
	return p, nil
}

// run executes a compiled program with the configuration mccrun users
// get: the default engine, eight simulated processors.
func (x exec) run(p *vm.Program, cfg vm.Config, o *outcome) (vm.Result, error) {
	s := x.rec.Start("vm.run")
	r, err := vm.Run(p, cfg)
	if err != nil {
		s.End()
		return r, err
	}
	run := newSimRun(r.Makespan, r.Footprint, r.Alloc, r.Heap, r.Sim)
	run.poolHits, run.poolMisses, run.shadowReuses = r.PoolHits, r.PoolMisses, r.ShadowReuses
	s.Set("sim_events", run.events()).End()
	o.add(run)
	return r, nil
}

// program is one MiniCC program through the tool path of `amplify` and
// `mccrun`: front end, vet, the Amplify rewrite when amplified, then
// compile and run.
func (x exec) program(src string, amplify bool, cfg vm.Config) (outcome, error) {
	var o outcome
	prog, err := x.parse(src)
	if err != nil {
		return o, err
	}
	o.diagnostics = int64(len(x.vet(prog).Diags))
	if amplify {
		out, err := x.rewrite(src, core.Options{}, &o)
		if err != nil {
			return o, err
		}
		if prog, err = x.parse(out); err != nil {
			return o, fmt.Errorf("rewritten program: %w", err)
		}
	}
	p, err := x.compile(prog, &o)
	if err != nil {
		return o, err
	}
	r, err := x.run(p, cfg, &o)
	if err != nil {
		return o, err
	}
	o.output, o.exit = sortedLines(r.Output), r.ExitCode
	return o, nil
}

// toolchain is the compiler-tool path with every analysis on: vet and
// escape analysis, a rewrite that skips the classes vet condemns and
// applies the escape-driven rewrites, then both programs compiled and
// run. The rewrite must not change what the program prints.
func (x exec) toolchain(src string) (outcome, error) {
	var o outcome
	prog, err := x.parse(src)
	if err != nil {
		return o, err
	}
	res := x.vet(prog)
	o.diagnostics = int64(len(res.Diags))
	x.escape(prog)
	auto := map[string]string{}
	for _, e := range res.Ineligible() {
		auto[e.Class] = e.Reason
	}
	out, err := x.rewrite(src, core.Options{AutoExclude: auto, Escape: true}, &o)
	if err != nil {
		return o, err
	}
	amp, err := x.parse(out)
	if err != nil {
		return o, fmt.Errorf("rewritten program: %w", err)
	}
	var results [2]vm.Result
	for i, pr := range []*cc.Program{prog, amp} {
		p, err := x.compile(pr, &o)
		if err != nil {
			return o, err
		}
		if results[i], err = x.run(p, vm.Config{}, &o); err != nil {
			return o, err
		}
	}
	plain, ampl := results[0], results[1]
	o.output, o.exit = sortedLines(plain.Output), plain.ExitCode
	if ampl.ExitCode != plain.ExitCode || sortedLines(ampl.Output) != o.output {
		return o, fmt.Errorf("amplified program diverged: exit %d, want %d", ampl.ExitCode, plain.ExitCode)
	}
	return o, nil
}

func (x exec) bgw(cfg bgw.Config) (outcome, error) {
	var o outcome
	s := x.rec.Start("bgw.run")
	r, err := bgw.Run(cfg)
	s.End()
	if err != nil {
		return o, err
	}
	run := newSimRun(r.Makespan, r.Footprint, r.Alloc, r.Heap, r.Sim)
	run.poolHits, run.shadowReuses = r.PoolHits, r.ShadowReuses
	o.add(run)
	return o, nil
}

func (x exec) tree(strategy string, cfg workload.TreeConfig) (outcome, error) {
	var o outcome
	s := x.rec.Start("workload.tree").Set("threads", int64(cfg.Threads))
	r, err := workload.RunTree(strategy, cfg)
	s.End()
	if err != nil {
		return o, err
	}
	run := newSimRun(r.Makespan, r.Footprint, r.Alloc, r.Heap, r.Sim)
	run.poolHits, run.poolMisses = r.PoolHits, r.PoolMisses
	o.add(run)
	return o, nil
}

// replay drives a decoded trace through one allocator and checks the
// allocator saw exactly the trace's requests: every alloc and free,
// and no live block beyond those the trace itself never frees.
func (x exec) replay(strategy string, tr *alloctrace.Trace, want alloctrace.Stats) (outcome, error) {
	var o outcome
	s := x.rec.Start("workload.replay."+strategy).Set("events", int64(len(tr.Events)))
	r, err := workload.RunReplay(strategy, workload.ReplayConfig{Trace: tr, Processors: 8})
	s.End()
	if err != nil {
		return o, err
	}
	if r.Alloc.Allocs != want.Allocs || r.Alloc.Frees != want.Frees || r.Alloc.LiveBlocks != want.Leaked {
		return o, fmt.Errorf("allocator saw %d allocs, %d frees, %d live blocks; trace has %d, %d, %d",
			r.Alloc.Allocs, r.Alloc.Frees, r.Alloc.LiveBlocks, want.Allocs, want.Frees, want.Leaked)
	}
	o.add(newSimRun(r.Makespan, r.Footprint, r.Alloc, r.Heap, r.Sim))
	return o, nil
}

func (x exec) decode(data []byte) (*alloctrace.Trace, error) {
	s := x.rec.Start("alloctrace.decode").Set("bytes", int64(len(data)))
	tr, err := alloctrace.Decode(data)
	s.End()
	return tr, err
}

func sortedLines(s string) string {
	lines := strings.Split(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
