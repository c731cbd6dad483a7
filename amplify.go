// Package amplify reproduces "A Method for Automatic Optimization of
// Dynamic Memory Management in C++" (Häggander, Lidén & Lundberg, ICPP
// 2001): the Amplify pre-processor, which rewrites object-oriented
// source code so that every class transparently recycles whole object
// structures through per-class pools with shadow pointers, exploiting
// the temporal locality of programs built with frameworks and design
// patterns.
//
// The package is a facade over the full reproduction stack:
//
//   - Rewrite runs the pre-processor over MiniCC source (a C++ subset
//     with classes, new/delete, and spawn/join threading);
//   - RunProgram executes MiniCC programs — original or rewritten — on
//     a deterministic simulated multiprocessor (compiled to bytecode)
//     with a choice of C-library allocators (Solaris-style
//     serial malloc, ptmalloc, Hoard, a SmartHeap-like per-thread-cache
//     allocator, LKmalloc);
//   - Experiment regenerates the tables and figures of the paper's
//     evaluation section.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// measured reproduction of every table and figure.
package amplify

import (
	"fmt"

	"amplify/internal/bench"
	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/target"
	"amplify/internal/vet"
	"amplify/internal/vm"
)

// RewriteOptions configure the pre-processor.
type RewriteOptions struct {
	// Exclude lists classes the pre-processor must leave alone (§5.1:
	// "the designer may choose not to amplify objects").
	Exclude []string
	// ArraysOnly limits the transformation to data-type arrays
	// (char[]/int[]) handled by shadowed realloc — the variant measured
	// on the Billing Gateway in §5.2.
	ArraysOnly bool
	// FlagMode uses the logical-delete flag encoding sketched in §5.1
	// instead of shadow pointers.
	FlagMode bool
}

// RewriteReport summarizes a transformation.
type RewriteReport struct {
	// Pooled lists the classes that received pool operators.
	Pooled []string
	// ShadowFields is the number of synthesized shadow fields per class.
	ShadowFields map[string]int
	// DeleteRewrites, NewRewrites, ArrayNewRewrites and
	// ArrayDeleteRewrites count applied rewrite rules.
	DeleteRewrites      int
	NewRewrites         int
	ArrayNewRewrites    int
	ArrayDeleteRewrites int
	// SingleThreaded reports that pool locks will be elided because the
	// program never spawns a thread.
	SingleThreaded bool
	// Text is the human-readable report.
	Text string
}

// Rewrite applies the Amplify pre-processor to MiniCC source and
// returns the transformed source, which is guaranteed to parse and
// type-check.
func Rewrite(src string, opt RewriteOptions) (string, *RewriteReport, error) {
	mode := core.ModeShadow
	if opt.FlagMode {
		mode = core.ModeFlag
	}
	out, rep, err := core.Rewrite(src, core.Options{
		Exclude:    opt.Exclude,
		ArraysOnly: opt.ArraysOnly,
		Mode:       mode,
	})
	if err != nil {
		return "", nil, err
	}
	return out, &RewriteReport{
		Pooled:              rep.Pooled,
		ShadowFields:        rep.ShadowFields,
		DeleteRewrites:      rep.DeleteRewrites,
		NewRewrites:         rep.NewRewrites,
		ArrayNewRewrites:    rep.ArrayNewRewrites,
		ArrayDeleteRewrites: rep.ArrayDeleteRewrites,
		SingleThreaded:      rep.SingleThreaded,
		Text:                rep.String(),
	}, nil
}

// Vet runs the flow-sensitive static analyzer over MiniCC source. It
// returns the human-readable findings (one diagnostic per line), true
// when the program is free of error-severity defects, and the classes
// ruled ineligible for amplification mapped to the condemning
// diagnostic codes — the map feeds auto-exclusion (see the amplify
// CLI's -auto-exclude flag).
func Vet(src string) (findings string, clean bool, ineligible map[string]string, err error) {
	prog, err := cc.Parse(src)
	if err == nil {
		err = cc.Analyze(prog)
	}
	if err != nil {
		return "", false, nil, err
	}
	res := vet.Check(prog)
	ineligible = map[string]string{}
	for _, e := range res.Ineligible() {
		ineligible[e.Class] = e.Reason
	}
	return res.String(), !res.HasErrors(), ineligible, nil
}

// RunConfig parameterizes program execution on the simulated machine.
type RunConfig struct {
	// Allocator is the C-library allocator: "serial" (default; the
	// Solaris-style baseline), "ptmalloc", "hoard", "smartheap",
	// "lkmalloc" or "lfalloc".
	Allocator string
	// Processors is the simulated CPU count (default 8, the paper's
	// machines).
	Processors int
	// MaxSteps bounds the program's executed work, in the VM's
	// unoptimized instruction count, as a guard against non-terminating
	// programs (default 50 million).
	MaxSteps int64
}

// RunResult reports a program execution.
type RunResult struct {
	// Output is everything the program printed.
	Output string
	// ExitCode is main's return value.
	ExitCode int64
	// Makespan is the completion time in virtual cycles.
	Makespan int64
	// HeapAllocs and HeapFrees count C-library allocator operations.
	HeapAllocs, HeapFrees int64
	// PoolHits and PoolMisses count structure-pool operations
	// (pre-processed programs only).
	PoolHits, PoolMisses int64
	// ShadowReuses counts array allocations served from shadow memory.
	ShadowReuses int64
	// LockAcquires and LockContended count mutex traffic.
	LockAcquires, LockContended int64
	// CacheMisses counts simulated cache misses.
	CacheMisses int64
	// FootprintBytes is the simulated process memory consumption.
	FootprintBytes int64
}

// RunProgram executes MiniCC source on the simulated multiprocessor.
func RunProgram(src string, cfg RunConfig) (RunResult, error) {
	prog, err := cc.Parse(src)
	if err == nil {
		err = cc.Analyze(prog)
	}
	if err != nil {
		return RunResult{}, err
	}
	mcfg := target.Config{Processors: cfg.Processors, Strategy: cfg.Allocator, MaxSteps: cfg.MaxSteps}
	var res target.Result
	var p *vm.Program
	if p, err = vm.CompileOpts(prog, vm.Options{}); err == nil {
		res, err = vm.Run(p, mcfg)
	}
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Output:         res.Output,
		ExitCode:       res.ExitCode,
		Makespan:       res.Makespan,
		HeapAllocs:     res.Alloc.Allocs,
		HeapFrees:      res.Alloc.Frees,
		PoolHits:       res.PoolHits,
		PoolMisses:     res.PoolMisses,
		ShadowReuses:   res.ShadowReuses,
		LockAcquires:   res.Sim.LockAcquires,
		LockContended:  res.Sim.LockContended,
		CacheMisses:    res.Sim.CacheMisses,
		FootprintBytes: res.Footprint,
	}, nil
}

// Experiments lists the experiment names accepted by Experiment, in
// the order `amplifybench -exp all` runs them: table1, fig4 through
// fig11, claims, memory, pipeline, sensitivity, escape, scale,
// contend, replay and endtoend.
func Experiments() []string {
	return bench.Names()
}

// Experiment regenerates one of the paper's tables or figures and
// returns it as rendered text. Set quick for reduced run sizes.
func Experiment(name string, quick bool) (string, error) {
	out, err := bench.NewRunner(quick).Run(name)
	if err != nil {
		return "", fmt.Errorf("amplify: %w", err)
	}
	return out, nil
}
