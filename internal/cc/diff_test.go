package cc

import (
	"math/rand"
	"reflect"
	"testing"

	"amplify/internal/mccgen"
)

// lexEdgeCases are inputs on the lexer's boundaries: integer limits,
// operators cut off by the end of input, bytes >= 0x80 (identifier
// letters under Latin-1, like 0xE9, or stray ones, like 0xD7) and every
// lexical error.
var lexEdgeCases = []string{
	"9223372036854775807",
	"9223372036854775808",
	"18446744073709551617",
	"18446744073709551620",
	"return 18446744073709551620;",
	"a->b == c != d <= e >= f && g || h",
	"-", "=", "!", "<", ">", "&", "|", "&&", "|",
	"caf\xe9 = 1;",
	"x \xd7 y",
	"\xc3\xa9t\xc3\xa9",
	"12ab",
	"@",
	"/* open",
	`"open`,
	`"bad \q"`,
	`"trailing \`,
	"a\n\tb\r\n  c // end",
}

// checkLexDiff fails t unless Lex and the oracle lexer agree on src:
// the same tokens (kind, text, value, position), or the same error at
// the same position.
func checkLexDiff(t *testing.T, src string) {
	t.Helper()
	got, gotErr := Lex(src)
	want, wantErr := oracleLex(src)
	if !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("Lex(%q) error = %v, oracle %v", src, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("Lex(%q) gave %d tokens, oracle %d", src, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Lex(%q) token %d = %+v, oracle %+v", src, i, got[i], want[i])
		}
	}
}

// FuzzLexDiff holds the lexer to the oracle on arbitrary input.
func FuzzLexDiff(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range lexEdgeCases {
		f.Add(s)
	}
	f.Fuzz(checkLexDiff)
}

// diffPrograms returns the generated programs the printer and lexer
// differential tests run on: 60 seeds with MaxClasses spread over 8-64,
// from a fixed draw.
func diffPrograms() []string {
	rng := rand.New(rand.NewSource(13))
	srcs := make([]string, 60)
	for i := range srcs {
		srcs[i] = mccgen.Generate(mccgen.Config{
			Seed:       rng.Int63(),
			MaxClasses: 8 + i*56/(len(srcs)-1),
			MaxFields:  4 + rng.Intn(9),
			Iterations: 1 + rng.Intn(2),
			Threads:    1 + rng.Intn(2),
		})
	}
	return srcs
}

func TestLexMatchesOracle(t *testing.T) {
	for _, src := range diffPrograms() {
		checkLexDiff(t, src)
	}
}

// TestPrintMatchesOracle prints generated programs and the FuzzParse
// seeds with Print and with the oracle printer, byte for byte. Each
// program is printed twice: as parsed, and with every other field
// marked as a shadow and every other method as synthetic, the two
// annotations only the Amplify rewriter sets.
func TestPrintMatchesOracle(t *testing.T) {
	srcs := append(diffPrograms(), parseSeeds...)
	for i, src := range srcs {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		checkPrintDiff(t, i, prog)
		for _, d := range prog.Decls {
			cd, ok := d.(*ClassDecl)
			if !ok {
				continue
			}
			for j, f := range cd.Fields {
				if j%2 == 0 {
					f.Shadow, f.ShadowOf = true, f.Name+"Orig"
				}
			}
			for j, m := range cd.Methods {
				m.Synthetic = j%2 == 1
			}
		}
		checkPrintDiff(t, i, prog)
	}
}

func checkPrintDiff(t *testing.T, i int, prog *Program) {
	t.Helper()
	if got, want := Print(prog), oraclePrint(prog); got != want {
		t.Fatalf("program %d: Print differs from the oracle\n--- Print ---\n%s\n--- oracle ---\n%s", i, got, want)
	}
}
