package core_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/interp"
	"amplify/internal/mccgen"
	"amplify/internal/target"
	"amplify/internal/vet"
	"amplify/internal/vm"
)

// runAST parses, analyzes and runs src on the interpreter.
func runAST(src string, cfg target.Config) (target.Result, error) {
	prog, err := cc.Parse(src)
	if err == nil {
		err = cc.Analyze(prog)
	}
	if err != nil {
		return target.Result{}, err
	}
	return interp.Run(prog, cfg)
}

// runVM parses, analyzes, compiles and runs src on the VM.
func runVM(src string, cfg vm.Config) (vm.Result, error) {
	prog, err := cc.Parse(src)
	if err == nil {
		err = cc.Analyze(prog)
	}
	if err != nil {
		return vm.Result{}, err
	}
	p, err := vm.Compile(prog)
	if err != nil {
		return vm.Result{}, err
	}
	return vm.Run(p, cfg)
}

// sortedLines canonicalizes multi-threaded output, whose line order
// depends on virtual-time interleaving (per-worker totals are
// deterministic; completion order is not guaranteed to match between
// program variants).
func sortedLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestDifferentialRandomPrograms is the pre-processor's strongest
// correctness check: for a corpus of generated programs, the
// transformed source must behave exactly like the original under every
// option combination, and under different allocators.
func TestDifferentialRandomPrograms(t *testing.T) {
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"shadow", core.Options{}},
		{"flag", core.Options{Mode: core.ModeFlag}},
		{"arrays-only", core.Options{ArraysOnly: true}},
		{"exclude-root", core.Options{Exclude: []string{"C0"}}},
	}
	for seed := int64(0); seed < 25; seed++ {
		cfg := mccgen.Config{Seed: seed}
		if seed%3 == 0 {
			cfg.Threads = 3
		}
		src := mccgen.Generate(cfg)
		plain, err := runAST(src, target.Config{})
		if err != nil {
			t.Fatalf("seed %d: plain run failed: %v\nprogram:\n%s", seed, err, src)
		}
		want := sortedLines(plain.Output)
		for _, v := range variants {
			out, _, err := core.Rewrite(src, v.opt)
			if err != nil {
				t.Fatalf("seed %d %s: rewrite failed: %v\nprogram:\n%s", seed, v.name, err, src)
			}
			for _, allocator := range []string{"serial", "ptmalloc"} {
				got, err := runAST(out, target.Config{Strategy: allocator})
				if err != nil {
					t.Fatalf("seed %d %s/%s: run failed: %v\ntransformed:\n%s",
						seed, v.name, allocator, err, out)
				}
				if sortedLines(got.Output) != want {
					t.Fatalf("seed %d %s/%s: behavior diverged\nplain:\n%s\ntransformed output:\n%s\nprogram:\n%s\ntransformed:\n%s",
						seed, v.name, allocator, plain.Output, got.Output, src, out)
				}
				if got.ExitCode != plain.ExitCode {
					t.Fatalf("seed %d %s/%s: exit %d != %d", seed, v.name, allocator, got.ExitCode, plain.ExitCode)
				}
			}
		}
	}
}

// TestDifferentialReducesAllocations checks the transformation's point
// on the same corpus: shadow mode must reduce heap traffic on every
// program whose structures repeat.
func TestDifferentialReducesAllocations(t *testing.T) {
	reduced := 0
	total := 0
	for seed := int64(0); seed < 25; seed++ {
		src := mccgen.Generate(mccgen.Config{Seed: seed, Iterations: 16})
		plain, err := runAST(src, target.Config{})
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := core.Rewrite(src, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		amp, err := runAST(out, target.Config{})
		if err != nil {
			t.Fatal(err)
		}
		total++
		if amp.Alloc.Allocs < plain.Alloc.Allocs {
			reduced++
		}
		if amp.Alloc.Allocs > plain.Alloc.Allocs {
			t.Errorf("seed %d: amplified allocates MORE (%d vs %d)", seed, amp.Alloc.Allocs, plain.Alloc.Allocs)
		}
	}
	if reduced < total*8/10 {
		t.Errorf("allocation reduction on only %d/%d programs", reduced, total)
	}
}

// TestGeneratedProgramsAreValid pins the generator itself: everything
// it emits parses, analyzes, prints and round-trips.
func TestGeneratedProgramsAreValid(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		src := mccgen.Generate(mccgen.Config{Seed: seed, Threads: int(seed % 4)})
		prog, err := cc.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if err := cc.Analyze(prog); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		reprinted := cc.Print(prog)
		if _, err := cc.Parse(reprinted); err != nil {
			t.Fatalf("seed %d: reprint does not parse: %v", seed, err)
		}
	}
}

// TestGeneratorDeterminism pins that the corpus is reproducible.
func TestGeneratorDeterminism(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a := mccgen.Generate(mccgen.Config{Seed: seed})
		b := mccgen.Generate(mccgen.Config{Seed: seed})
		if a != b {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
	}
}

// TestRewriteKeepsRawStringBytes: a string literal holding a byte the
// lexer reads raw, here 0xE9, survives the rewrite's print and
// verification re-parse, and the amplified program prints what the
// original prints.
func TestRewriteKeepsRawStringBytes(t *testing.T) {
	src := "int main(){print(\"caf\xe9\");return 0;}"
	out, _, err := core.Rewrite(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runVM(src, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	amp, err := runVM(out, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Output != "caf\xe9\n" || amp.Output != plain.Output {
		t.Errorf("amplified program printed %q, original %q", amp.Output, plain.Output)
	}
}

// TestRewriteProgramMatchesRewrite: the tree path the CLIs take — parse
// and analyze once, vet, then RewriteProgram on the vetted tree — must
// produce exactly the output and report Rewrite produces from the
// source, with and without the escape-driven rewrites, and the tree it
// returns must compile exactly as that output does.
func TestRewriteProgramMatchesRewrite(t *testing.T) {
	corpus := []string{escSrc}
	for seed := int64(0); seed < 25; seed++ {
		corpus = append(corpus, mccgen.Generate(mccgen.Config{Seed: seed, Threads: int(seed % 3)}))
	}
	for i, src := range corpus {
		for _, escape := range []bool{false, true} {
			prog := cc.MustAnalyze(cc.MustParse(src))
			auto := map[string]string{}
			for _, e := range vet.Check(prog).Ineligible() {
				auto[e.Class] = e.Reason
			}
			opt := core.Options{AutoExclude: auto, Escape: escape}
			got, tree, gotRep, err := core.RewriteProgram(prog, opt)
			if err != nil {
				t.Fatalf("program %d escape=%v: RewriteProgram: %v", i, escape, err)
			}
			core.CheckReturnedTree(t, got, tree)
			want, wantRep, err := core.Rewrite(src, opt)
			if err != nil {
				t.Fatalf("program %d escape=%v: Rewrite: %v", i, escape, err)
			}
			if got != want || !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("program %d escape=%v: tree path diverged\n%s\nreport %+v\nwant:\n%s\nreport %+v",
					i, escape, got, gotRep, want, wantRep)
			}
		}
	}
}
