// Package obsvpin pins observation artifacts to committed SHA-256
// sums. Tests from several packages share one sums file (in
// `sha256sum -c` format); each owns the entries under its own path
// prefix.
package obsvpin

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update-observe", false, "rewrite the pinned observation sums instead of checking them")

// Check compares the SHA-256 of every artifact in got (keyed by its
// name under prefix) with the sums file's entries for that prefix. A
// missing, extra or differing entry fails t. With -update-observe the
// prefix's entries are rewritten from got instead; entries of other
// prefixes are kept.
func Check(t *testing.T, sumsPath, prefix string, got map[string][]byte) {
	t.Helper()
	raw, err := os.ReadFile(sumsPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	want := map[string]string{}
	var others []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		switch {
		case !ok:
			continue
		case strings.HasPrefix(name, prefix):
			want[name] = sum
		default:
			others = append(others, line)
		}
	}
	sums := map[string]string{}
	for name, b := range got {
		h := sha256.Sum256(b)
		sums[name] = hex.EncodeToString(h[:])
	}
	if *update {
		for name, sum := range sums {
			others = append(others, sum+"  "+name)
		}
		sort.Slice(others, func(i, j int) bool { return others[i][66:] < others[j][66:] })
		if err := os.WriteFile(sumsPath, []byte(strings.Join(others, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, sum := range sums {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned sum in %s", name, sumsPath)
		} else if w != sum {
			t.Errorf("%s: sha256 %s, pinned %s (%d bytes)", name, sum, w, len(got[name]))
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned in %s but not produced", name, sumsPath)
		}
	}
}
