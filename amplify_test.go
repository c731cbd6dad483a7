package amplify

import (
	"strings"
	"testing"
)

const facadeProgram = `
class Pair {
public:
    Pair(int a, int b) {
        x = new Box(a);
        y = new Box(b);
    }
    ~Pair() {
        delete x;
        delete y;
    }
    int sum() {
        return x->get() + y->get();
    }
private:
    Box* x;
    Box* y;
};

class Box {
public:
    Box(int v) {
        val = v;
    }
    ~Box() {
    }
    int get() {
        return val;
    }
private:
    int val;
};

int main() {
    int total = 0;
    for (int i = 0; i < 25; i = i + 1) {
        Pair* p = new Pair(i, i * 2);
        total = total + p->sum();
        delete p;
    }
    print("total", total);
    return 0;
}
`

func TestFacadeRewrite(t *testing.T) {
	out, rep, err := Rewrite(facadeProgram, RewriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "xShadow") || !strings.Contains(out, "__pool_alloc(Pair)") {
		t.Errorf("transformed source missing expected constructs:\n%s", out)
	}
	if len(rep.Pooled) != 2 {
		t.Errorf("pooled = %v", rep.Pooled)
	}
	if !rep.SingleThreaded {
		t.Error("single-threaded program not detected")
	}
	if rep.Text == "" {
		t.Error("empty report text")
	}
}

func TestFacadeRunProgram(t *testing.T) {
	plain, err := RunProgram(facadeProgram, RunConfig{Allocator: "ptmalloc"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Output != "total 900\n" {
		t.Errorf("output = %q", plain.Output)
	}
	out, _, err := Rewrite(facadeProgram, RewriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	amp, err := RunProgram(out, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if amp.Output != plain.Output {
		t.Errorf("amplified output = %q, want %q", amp.Output, plain.Output)
	}
	if amp.HeapAllocs >= plain.HeapAllocs {
		t.Errorf("amplified heap allocs %d, plain %d", amp.HeapAllocs, plain.HeapAllocs)
	}
	if amp.Makespan >= plain.Makespan {
		t.Errorf("amplified not faster: %d vs %d", amp.Makespan, plain.Makespan)
	}
	if amp.PoolHits == 0 {
		t.Error("no pool hits")
	}
}

func TestFacadeRewriteOptions(t *testing.T) {
	out, _, err := Rewrite(facadeProgram, RewriteOptions{Exclude: []string{"Box"}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "__pool_alloc(Box)") {
		t.Error("excluded class pooled")
	}
	flag, _, err := Rewrite(facadeProgram, RewriteOptions{FlagMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flag, "xDead") {
		t.Errorf("flag mode output missing flag fields:\n%s", flag)
	}
}

func TestFacadeBadInputs(t *testing.T) {
	if _, _, err := Rewrite("class {", RewriteOptions{}); err == nil {
		t.Error("expected parse error")
	}
	if _, err := RunProgram("int main() { return x; }", RunConfig{}); err == nil {
		t.Error("expected analysis error")
	}
	if _, err := RunProgram(facadeProgram, RunConfig{Allocator: "bogus"}); err == nil {
		t.Error("expected allocator error")
	}
	if _, err := Experiment("nope", true); err == nil {
		t.Error("expected experiment error")
	}
}

func TestFacadeVet(t *testing.T) {
	findings, clean, ineligible, err := Vet(cliPinInputs["clean"])
	if err != nil || !clean || len(ineligible) != 0 {
		t.Errorf("clean program: clean=%v ineligible=%v err=%v\n%s", clean, ineligible, err, findings)
	}
	findings, clean, ineligible, err = Vet(cliProgram)
	if err != nil || clean || len(ineligible) != 1 || ineligible["Node"] != "V001 ctor-uninit" {
		t.Errorf("V001 program: clean=%v ineligible=%v err=%v", clean, ineligible, err)
	}
	if !strings.Contains(findings, "V001 error") {
		t.Errorf("V001 program: findings lack the V001 diagnostic:\n%s", findings)
	}
	if _, _, _, err := Vet(cliPinInputs["parse"]); err == nil {
		t.Error("parse error: no error returned")
	}
}

func TestFacadeExperimentNames(t *testing.T) {
	names := Experiments()
	want := map[string]bool{"table1": true, "fig4": true, "fig11": true, "claims": true, "endtoend": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing experiments: %v (have %v)", want, names)
	}
}

func TestFacadeExperimentTable1(t *testing.T) {
	out, err := Experiment("table1", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "63") {
		t.Errorf("table1 output = %q", out)
	}
}
