// Command amplify is the pre-processor CLI: it reads a MiniCC source
// file, applies the Amplify transformation (structure pools via
// operator new/delete overloads, shadow pointers, shadowed array
// realloc) and writes the transformed source.
//
// Usage:
//
//	amplify [flags] input.mcc
//
// Flags:
//
//	-o file         write output to file (default: stdout)
//	-exclude A,B    classes the pre-processor must leave alone (§5.1)
//	-arrays-only    only shadow data-type arrays, the BGw variant (§5.2)
//	-mode m         "shadow" (default) or "flag" (§5.1's one-bit sketch)
//	-report         print a transformation report to stderr
//	-vet            analyze only: print diagnostics, exit 1 on errors
//	-vet-json       analyze only: print machine-readable JSON findings
//	-auto-exclude   run the analyzer and exclude ineligible classes
//	-escape         let the interprocedural escape/lifetime analysis
//	                drive the transform: frame promotion of proven
//	                non-escaping new/delete pairs, lock-free
//	                thread-private pools for thread-local classes, and
//	                pool pre-sizing from inferred allocation bounds
//	-escape-json    analyze only: print the escape analysis verdicts
//	                (per-site classification, class partition, pre-size
//	                hints, V008/V009 findings) as deterministic JSON
//	-spans file     write a JSONL span stream of the pre-processor
//	                pipeline (read -> parse -> sema -> vet -> rewrite ->
//	                write) with host-time durations and deterministic
//	                attributes; use - for stderr
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/telemetry"
	"amplify/internal/vet"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	exclude := flag.String("exclude", "", "comma-separated class names to skip")
	arraysOnly := flag.Bool("arrays-only", false, "only shadow data-type arrays (char[]/int[])")
	mode := flag.String("mode", "shadow", "shadow | flag")
	report := flag.Bool("report", false, "print a transformation report to stderr")
	vetOnly := flag.Bool("vet", false, "analyze for memory defects and amplify-safety; no transform")
	vetJSON := flag.Bool("vet-json", false, "like -vet but print JSON findings to stdout")
	autoExclude := flag.Bool("auto-exclude", false, "exclude classes the analyzer rules ineligible")
	escape := flag.Bool("escape", false, "apply the escape-analysis-driven rewrites (frame promotion, thread-private pools, pool pre-sizing)")
	escapeJSON := flag.Bool("escape-json", false, "analyze only: print the escape analysis verdicts as JSON")
	spansOut := flag.String("spans", "", "write a JSONL span stream of the pipeline phases (use - for stderr)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: amplify [flags] input.mcc  (use - for stdin)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var spans *telemetry.Recorder
	if *spansOut != "" {
		spans = telemetry.NewRecorder()
	}
	root := spans.Start("amplify")
	sp := spans.Start("read")
	src, err := readInput(flag.Arg(0))
	sp.Set("src_bytes", int64(len(src))).End()
	if err != nil {
		fatal(err)
	}

	// One analyzed tree serves every mode: the vet, the escape
	// analysis (shared by the vet and -escape) and the rewrite.
	prog := analyze(src, spans)
	if *vetOnly || *vetJSON {
		sp = spans.Start("vet")
		runVet(prog, flag.Arg(0), *vetJSON)
		sp.End()
		root.End()
		writeSpans(spans, *spansOut)
		return
	}
	if *escapeJSON {
		raw, err := vet.Escape(prog).JSON(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(raw))
		return
	}

	opt := core.Options{
		ArraysOnly: *arraysOnly,
		Mode:       core.Mode(*mode),
		Escape:     *escape,
	}
	if *exclude != "" {
		opt.Exclude = strings.Split(*exclude, ",")
	}
	if *autoExclude {
		sp = spans.Start("vet")
		excl := vet.Check(prog).Ineligible()
		sp.Set("ineligible", int64(len(excl))).End()
		opt.AutoExclude = map[string]string{}
		for _, e := range excl {
			opt.AutoExclude[e.Class] = e.Reason
		}
	}
	sp = spans.Start("rewrite")
	transformed, _, rep, err := core.RewriteProgram(prog, opt)
	sp.Set("out_bytes", int64(len(transformed))).End()
	if err != nil {
		fatal(err)
	}
	if *report {
		fmt.Fprint(os.Stderr, rep.String())
	}
	sp = spans.Start("write")
	if *out == "" {
		fmt.Print(transformed)
	} else if err := os.WriteFile(*out, []byte(transformed), 0o644); err != nil {
		fatal(err)
	}
	sp.End()
	root.End()
	writeSpans(spans, *spansOut)
}

// writeSpans emits the recorded pipeline spans as JSONL; "-" routes
// them to stderr so they never mix with the transformed source on
// stdout.
func writeSpans(spans *telemetry.Recorder, path string) {
	if spans == nil || path == "" {
		return
	}
	out := spans.JSONL()
	if path == "-" {
		os.Stderr.Write(out)
		return
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fatal(err)
	}
}

// runVet checks the program without transforming it. Diagnostics go
// to stderr (or JSON to stdout); the exit code is 1 when any
// error-severity finding exists, so the command works as a CI gate.
func runVet(prog *cc.Program, path string, asJSON bool) {
	res := vet.Check(prog)
	if asJSON {
		raw, err := res.JSON(path)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(raw))
	} else {
		fmt.Fprint(os.Stderr, res.String())
		errs, warns := res.Counts()
		fmt.Fprintf(os.Stderr, "%s: %d errors, %d warnings\n", path, errs, warns)
		for _, e := range res.Ineligible() {
			fmt.Fprintf(os.Stderr, "%s: class %s ineligible for amplification (%s)\n", path, e.Class, e.Reason)
		}
	}
	if res.HasErrors() {
		os.Exit(1)
	}
}

// analyze parses and analyzes the input, recording each phase as a
// span; a failure is fatal.
func analyze(src string, spans *telemetry.Recorder) *cc.Program {
	sp := spans.Start("parse").Set("src_bytes", int64(len(src)))
	prog, err := cc.Parse(src)
	sp.End()
	if err == nil {
		sp = spans.Start("sema")
		err = cc.Analyze(prog)
		sp.End()
	}
	if err != nil {
		fatal(err)
	}
	return prog
}

func readInput(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amplify:", err)
	os.Exit(1)
}
