package core

import "testing"

// FuzzRewrite checks that the pre-processor never panics and always
// produces re-parseable output for any analyzable input (Rewrite
// verifies that internally and returns an error otherwise).
func FuzzRewrite(f *testing.F) {
	f.Add(rootChildSrc, false, false)
	f.Add(rootChildSrc, true, false)
	f.Add(rootChildSrc, false, true)
	f.Add("class A { public: A() { } int x; }; int main() { return 0; }", false, false)
	f.Add("int main(){print(\"caf\xe9\");return 0;}", false, false)
	f.Fuzz(func(t *testing.T, src string, arraysOnly, flagMode bool) {
		opt := Options{ArraysOnly: arraysOnly}
		if flagMode {
			opt.Mode = ModeFlag
		}
		out, _, err := Rewrite(src, opt)
		if err != nil {
			return
		}
		// A successful rewrite must be stable under a second pass.
		if _, _, err := Rewrite(out, opt); err != nil {
			t.Fatalf("second pass failed: %v\n%s", err, out)
		}
	})
}
