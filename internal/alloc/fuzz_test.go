package alloc_test

import (
	"fmt"
	"sort"
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/hoard"
	"amplify/internal/lfalloc"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// hugeAbove is the largest class of each allocator that serves larger
// blocks straight from the address space and reports them in a last
// "huge" Inspect row.
var hugeAbove = map[string]int64{"hoard": hoard.MaxClass, "lfalloc": lfalloc.MaxClass}

// FuzzAllocator runs a random multi-threaded alloc/free script on one
// of the registered allocators and checks the allocator contract
// against a host model:
//
//   - live blocks never overlap and UsableSize covers the request;
//   - Stats equals the model's counts and bytes;
//   - Inspect's cumulative byte counts equal Stats';
//   - the per-heap rows of lkmalloc, ptmalloc, hoard and lfalloc are
//     never negative and sum to Stats;
//   - hoard and lfalloc report a "huge" row exactly while a request
//     above their largest class is live, holding those blocks' count
//     and bytes.
//
// data[0] picks the allocator, data[1] the thread count (1-4). Byte i
// of the rest is an op of thread i mod threads, with the high two bits
// choosing small alloc, small alloc, large alloc or free, and the rest
// the size or the block. A thread runs the first half of its ops, hands
// some blocks to the next thread through a sim.WaitGroup, then frees
// the blocks it was handed and runs the second half, so blocks are
// freed by threads other than their allocator's.
func FuzzAllocator(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 200, 64, 0xC0, 0x41, 0xff})
	for i := range strategies {
		f.Add([]byte{byte(i), 3, 0x01, 0x22, 0x43, 0x64, 0xf0, 0xf1, 0xf2, 0xf3,
			0x05, 0x90, 0x3f, 0x7f, 0xc0, 0xc1, 0xc2, 0xc3, 0x11, 0x12, 0x13, 0x14})
		f.Add([]byte{byte(i), 1, 0x02, 0x02, 0xc0, 0xc0, 0x01, 0x01, 0x8a, 0xbf, 0xf8, 0xf9})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1024 {
			return
		}
		name := strategies[int(data[0])%len(strategies)]
		threads := 1 + int(data[1])%4
		scripts := make([][]byte, threads)
		for i, op := range data[2:] {
			scripts[i%threads] = append(scripts[i%threads], op)
		}
		fuzzRun(t, name, scripts)
	})
}

// fuzzSize maps the low six bits of a small or large alloc op to a
// request: 1-505 bytes, or 512 B to 2 MiB, past the largest class.
func fuzzSize(op byte) int64 {
	v := int64(op & 63)
	if op>>6 < 2 {
		return v*8 + 1
	}
	return 1<<(9+v%13) + v
}

func fuzzRun(t *testing.T, name string, scripts [][]byte) {
	e := sim.New(sim.Config{Processors: 4})
	a, err := alloc.New(name, e, mem.NewSpace(), alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var model alloc.Stats
	live := map[mem.Ref]int64{} // usable size of each live block
	huge := map[mem.Ref]bool{}  // the live blocks of requests above hugeAbove
	handoff := make([][]mem.Ref, len(scripts))
	phase := e.NewWaitGroup()
	phase.Add(len(scripts))

	free := func(c *sim.Ctx, ref mem.Ref) {
		model.Frees++
		model.LiveBlocks--
		model.LiveBytes -= live[ref]
		delete(live, ref)
		delete(huge, ref)
		a.Free(c, ref)
	}
	run := func(c *sim.Ctx, ops []byte, mine *[]mem.Ref, next int) {
		for _, op := range ops {
			if op>>6 < 3 {
				size := fuzzSize(op)
				ref := a.Alloc(c, size)
				n := a.UsableSize(ref)
				// A failing check panics: Engine.Run re-raises a
				// thread's panic, and t.Fatal must not run on a
				// simulated thread's goroutine.
				if n < size {
					panic(fmt.Sprintf("%s: UsableSize = %d for a request of %d", name, n, size))
				}
				for r, m := range live {
					if ref < r+mem.Ref(m) && r < ref+mem.Ref(n) {
						panic(fmt.Sprintf("%s: block %#x+%d overlaps live block %#x+%d", name, ref, n, r, m))
					}
				}
				live[ref] = n
				if max, ok := hugeAbove[name]; ok && size > max {
					huge[ref] = true
				}
				model.Allocs++
				model.LiveBlocks++
				model.LiveBytes += n
				model.ReqBytes += size
				model.GrantBytes += n
				*mine = append(*mine, ref)
				continue
			}
			if len(*mine) == 0 {
				continue
			}
			i := int(op&63) % len(*mine)
			ref := (*mine)[i]
			*mine = append((*mine)[:i], (*mine)[i+1:]...)
			if op&32 != 0 && next >= 0 {
				handoff[next] = append(handoff[next], ref)
			} else {
				free(c, ref)
			}
		}
	}
	for i, ops := range scripts {
		e.Go("w", func(c *sim.Ctx) {
			var mine []mem.Ref
			half := len(ops) / 2
			run(c, ops[:half], &mine, (i+1)%len(scripts))
			phase.Done(c)
			phase.Wait(c)
			for _, ref := range handoff[i] {
				free(c, ref)
			}
			run(c, ops[half:], &mine, -1)
		})
	}
	e.Run()

	st := a.Stats()
	if st.LiveBytes > st.PeakBytes || st.PeakBytes > st.GrantBytes {
		t.Errorf("%s: PeakBytes %d outside [LiveBytes %d, GrantBytes %d]", name, st.PeakBytes, st.LiveBytes, st.GrantBytes)
	}
	st.PeakBytes = 0
	if st != model {
		t.Errorf("%s: Stats = %+v, model %+v", name, st, model)
	}
	refs := make([]mem.Ref, 0, len(live))
	for r := range live {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	for i := 1; i < len(refs); i++ {
		if prev := refs[i-1]; prev+mem.Ref(live[prev]) > refs[i] {
			t.Errorf("%s: live blocks %#x and %#x overlap", name, prev, refs[i])
		}
	}
	insp, ok := a.(alloc.Inspector)
	if !ok {
		return
	}
	hi := insp.Inspect()
	if hi.ReqBytes != st.ReqBytes || hi.GrantedBytes != st.GrantBytes {
		t.Errorf("%s: Inspect req/granted = %d/%d, Stats %d/%d", name, hi.ReqBytes, hi.GrantedBytes, st.ReqBytes, st.GrantBytes)
	}
	if name != "lkmalloc" && name != "ptmalloc" && name != "hoard" && name != "lfalloc" {
		return
	}
	var blocks, bytes int64
	for _, ar := range hi.Arenas {
		if ar.LiveBlocks < 0 || ar.LiveBytes < 0 {
			t.Errorf("%s: %s holds %d blocks, %d bytes", name, ar.Name, ar.LiveBlocks, ar.LiveBytes)
		}
		blocks += ar.LiveBlocks
		bytes += ar.LiveBytes
	}
	if blocks != st.LiveBlocks || bytes != st.LiveBytes {
		t.Errorf("%s: heaps hold %d blocks, %d bytes; Stats %d, %d", name, blocks, bytes, st.LiveBlocks, st.LiveBytes)
	}
	if _, ok := hugeAbove[name]; !ok {
		return
	}
	want := alloc.ArenaInfo{Name: "huge", LiveBlocks: int64(len(huge))}
	for ref := range huge {
		want.LiveBytes += live[ref]
	}
	var got alloc.ArenaInfo
	for _, ar := range hi.Arenas {
		if ar.Name == "huge" {
			got = ar
		}
	}
	if want.LiveBlocks == 0 {
		want = alloc.ArenaInfo{}
	}
	if got != want {
		t.Errorf("%s: huge row %+v, want %+v", name, got, want)
	}
}
