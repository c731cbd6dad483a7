// Command mcctrace works with allocation traces (internal/alloctrace):
// the flight-recorder artifacts mccrun -record-trace and the committed
// corpora produce.
//
// Usage:
//
//	mcctrace gen [-dir d]                  synthesize the committed corpora
//	mcctrace analyze [-json] trace...      print a trace's shape summary
//	mcctrace replay [-alloc s] [-procs n] [-record-trace f] trace...
//	                                       drive a trace through an allocator
//
// analyze and replay accept - as a trace argument to read the binary
// trace from stdin, so mccrun -record-trace output can be piped in
// without touching disk; a committed corpus name works anywhere a
// file path does.
//
// gen writes every corpus as <name>.trace (binary), <name>.trace.jsonl
// (mirror) and a SHA256SUMS manifest — the files committed under
// testdata/traces/, which CI re-generates and checksum-pins. analyze
// prints the deterministic text report (or JSON with -json). replay
// runs the trace through the chosen allocator on the simulated SMP and
// reports the makespan and allocator counters; all replayed numbers
// are simulated and deterministic. replay -record-trace f re-captures
// the replayed request stream as f, with its JSONL mirror at f.jsonl.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"amplify/internal/alloc"
	"amplify/internal/alloctrace"
	"amplify/internal/obsv"
	"amplify/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcctrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mcctrace gen|analyze|replay [flags] [trace...]")
	}
	switch cmd := args[0]; cmd {
	case "gen":
		return runGen(args[1:])
	case "analyze":
		return runAnalyze(args[1:])
	case "replay":
		return runReplay(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want gen, analyze or replay)", cmd)
	}
}

// runGen synthesizes every committed corpus into -dir, plus the
// SHA256SUMS manifest CI pins. Generation is deterministic, so a
// re-run over a clean checkout is a no-op diff.
func runGen(args []string) error {
	fs := flag.NewFlagSet("mcctrace gen", flag.ExitOnError)
	dir := fs.String("dir", "testdata/traces", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	var manifest []byte
	for _, name := range alloctrace.CorpusNames() {
		tr, err := alloctrace.Corpus(name)
		if err != nil {
			return err
		}
		bin := tr.Encode()
		jsonl := tr.JSONL()
		for _, f := range []struct {
			name string
			data []byte
		}{{name + ".trace", bin}, {name + ".trace.jsonl", jsonl}} {
			if err := os.WriteFile(filepath.Join(*dir, f.name), f.data, 0o644); err != nil {
				return err
			}
			manifest = append(manifest, fmt.Sprintf("%x  %s\n", sha256.Sum256(f.data), f.name)...)
		}
		st := tr.Stats()
		fmt.Printf("%-12s %7d events %8d bytes binary (%d allocs, %d cross-thread frees, %d leaked)\n",
			name, st.Events, len(bin), st.Allocs, st.CrossThreadFrees, st.Leaked)
	}
	return os.WriteFile(filepath.Join(*dir, "SHA256SUMS"), manifest, 0o644)
}

// runAnalyze prints each trace's deterministic shape summary.
func runAnalyze(args []string) error {
	fs := flag.NewFlagSet("mcctrace analyze", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the analysis as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("analyze needs at least one trace file")
	}
	for _, path := range fs.Args() {
		tr, err := readTrace(path)
		if err != nil {
			return err
		}
		a := alloctrace.Analyze(tr)
		if *asJSON {
			out, err := a.JSON()
			if err != nil {
				return err
			}
			fmt.Printf("%s\n", out)
		} else {
			fmt.Print(a.String())
		}
	}
	return nil
}

// runReplay drives each trace through the chosen allocator.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("mcctrace replay", flag.ExitOnError)
	allocName := fs.String("alloc", "serial", "allocator: serial | ptmalloc | hoard | smartheap | lkmalloc | lfalloc")
	procs := fs.Int("procs", 8, "simulated processors")
	rerecord := fs.String("record-trace", "", "re-capture the replay as a binary trace (single input only); JSONL mirror goes to <file>.jsonl")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := alloc.Valid(*allocName); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("replay needs at least one trace file")
	}
	if *rerecord != "" && fs.NArg() != 1 {
		return fmt.Errorf("-record-trace replays a single trace")
	}
	for _, path := range fs.Args() {
		tr, err := readTrace(path)
		if err != nil {
			return err
		}
		obs := &obsv.Set{}
		if *rerecord != "" {
			obs.Allocs = alloctrace.NewRecorder(tr.Name)
		}
		res, err := workload.RunReplay(*allocName, workload.ReplayConfig{Trace: tr, Processors: *procs, Tracer: obs.Tracer()})
		if err != nil {
			return err
		}
		fmt.Printf("%s x %s: makespan %d cycles, %d allocs / %d frees, footprint %d bytes, peak %d bytes\n",
			res.TraceName, res.Strategy, res.Makespan,
			res.Alloc.Allocs, res.Alloc.Frees, res.Footprint, res.Alloc.PeakBytes)
		if *rerecord != "" {
			if err := obs.Write(*rerecord, obsv.AllocTrace); err != nil {
				return err
			}
		}
	}
	return nil
}

// readTrace loads a binary trace — from stdin when the argument is
// "-" — falling back to a committed corpus name when the argument is
// not a file.
func readTrace(path string) (*alloctrace.Trace, error) {
	if path == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, fmt.Errorf("reading trace from stdin: %w", err)
		}
		return alloctrace.Decode(data)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if tr, cerr := alloctrace.Corpus(path); cerr == nil {
			return tr, nil
		}
		return nil, err
	}
	return alloctrace.Decode(data)
}
