package bench

import (
	"fmt"
	"strings"
	"testing"

	"amplify/internal/core"
	"amplify/internal/pool"
	"amplify/internal/target"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

// treeProgramRun runs the amplified MiniCC tree program on the VM: the
// program workload.RunTree("amplify") models.
func treeProgramRun(depth, perThread, threads, procs int, pc pool.Config) (vm.Result, error) {
	prog, err := vmProgram{"tree", treeSource(threads, perThread, depth), &core.Options{}, ""}.tree()
	if err != nil {
		return vm.Result{}, err
	}
	p, err := vm.Compile(prog)
	if err != nil {
		return vm.Result{}, err
	}
	return vm.Run(p, vm.Config{Processors: procs, Pool: pc})
}

// poolCounts is what the Go model and the program must agree on: the
// pool's hits and misses, the shadow reuses, and the allocator calls
// underneath. Makespans differ by design (the model charges no VM
// instructions), so they are not compared.
func poolCounts(c target.Counters) string {
	return fmt.Sprintf("pool hits %d, misses %d, shadow reuses %d; allocator allocs %d, frees %d",
		c.PoolHits, c.PoolMisses, c.ShadowReuses, c.Alloc.Allocs, c.Alloc.Frees)
}

// TestTreeModelMatchesProgram checks the Go model of the amplified tree
// program against the program itself, run by the VM from the
// rewritten treeSource. The cells with more threads than pool shards
// (two per processor) hand structures that one thread freed to
// another: the shadow pointers travel with the object, so the taking
// thread reuses the children instead of allocating them again.
func TestTreeModelMatchesProgram(t *testing.T) {
	for _, c := range []struct{ depth, perThread, threads, procs int }{
		{1, 8, 1, 8},
		{3, 8, 1, 8},
		{1, 2, 32, 8},
		{3, 2, 32, 8},
		{1, 1, 400, 8},
		{3, 2, 200, 8},
		{1, 8, 1, 1024},
		{3, 8, 1, 1024},
		{1, 1, 4096, 1024},
		{3, 2, 2560, 1024},
	} {
		t.Run(fmt.Sprintf("depth%d/threads%d/p%d", c.depth, c.threads, c.procs), func(t *testing.T) {
			model, err := workload.RunTree("amplify", workload.TreeConfig{
				Depth: c.depth, Trees: c.perThread * c.threads, Threads: c.threads, Processors: c.procs})
			if err != nil {
				t.Fatal(err)
			}
			prog, err := treeProgramRun(c.depth, c.perThread, c.threads, c.procs, pool.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := poolCounts(model.Counters), poolCounts(prog.Counters); got != want {
				t.Errorf("model: %s\nprogram: %s", got, want)
			}
		})
	}
}

// TestTreeProgramTrapsOnPooledChild names the one place the program,
// not the model, leaves the comparison above. With one pool shard,
// threads overlap closely enough that a constructor's placement new
// with a null shadow takes another thread's pooled root as a child.
// The model reuses that root's children, as the rewritten constructor
// does. The program faults instead: treeSource's constructor assigns
// left and right only when depth > 0 (vet's V001), so the recycled root
// keeps its old, destroyed children as a leaf, and sum() calls into
// them.
func TestTreeProgramTrapsOnPooledChild(t *testing.T) {
	_, err := treeProgramRun(5, 4, 64, 8, pool.Config{Shards: 1})
	if err == nil || !strings.Contains(err.Error(), "use of destroyed Node object (at Node::sum") {
		t.Fatalf("program error %v, want the destroyed-child fault in Node::sum", err)
	}
}
