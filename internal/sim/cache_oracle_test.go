package sim

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// refCache is the two-table cache model the one-probe line table
// replaced, kept as the differential oracle: one table holds each
// line's version and last writer, and one table per processor holds
// the version that processor last saw. It is the same protocol as
// Cache without the host-side record layout or memo, so every charged
// cycle, counter and coherence event must match.
type refCache struct {
	cost   *CostModel
	global refLineMap
	seen   []refLineMap

	Hits, Misses, Invalidations, RFOs int64
}

func newRefCache(p int, cost *CostModel) *refCache {
	return &refCache{cost: cost, seen: make([]refLineMap, p)}
}

func (c *refCache) access(t *Thread, cpu int, addr uint64, size int64, write bool) {
	if size <= 0 {
		size = 1
	}
	first := addr >> lineShift
	last := (addr + uint64(size) - 1) >> lineShift
	for line := first; line <= last; line++ {
		c.accessLine(t, cpu, line, write)
	}
}

func (c *refCache) accessLine(t *Thread, cpu int, line uint64, write bool) {
	s := &c.seen[cpu]
	s.ensure()
	g := &c.global
	g.ensure()
	si, sok := s.find(line)
	gi, gok := g.find(line)
	var version uint32
	var writer int32
	if gok {
		version, writer = uint32(g.vals[gi]), int32(g.vals[gi]>>32)
	}
	var cycles int64
	if sok && uint32(s.vals[si]) == version {
		cycles = c.cost.CacheHit
		c.Hits++
	} else {
		cycles = c.cost.CacheMiss
		c.Misses++
		if sok {
			c.Invalidations++
			t.e.traceArgs(t, EvCacheInval, "", int64(line), 0)
		}
	}
	if write {
		if writer != int32(cpu) && version != 0 {
			cycles += c.cost.CacheRFO
			c.RFOs++
			t.e.traceArgs(t, EvCacheRFO, "", int64(line), 0)
		}
		version++
		writer = int32(cpu)
		g.set(gi, gok, line, uint64(version)|uint64(uint32(writer))<<32)
	}
	s.set(si, sok, line, uint64(version))
	refAdvance(t, cycles)
}

// refLineMap is an open-addressed table from line to a 64-bit payload
// (keys stored as line+1, linear probing, no deletion).
type refLineMap struct {
	keys, vals []uint64
	n          int
}

func (m *refLineMap) ensure() {
	if len(m.keys) == 0 {
		m.keys, m.vals = make([]uint64, 1024), make([]uint64, 1024)
		return
	}
	if (m.n+1)*4 <= len(m.keys)*3 {
		return
	}
	oldKeys, oldVals := m.keys, m.vals
	m.keys, m.vals = make([]uint64, 2*len(oldKeys)), make([]uint64, 2*len(oldKeys))
	mask := uint64(len(m.keys) - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := hashLine(k-1, mask)
		for m.keys[j] != 0 {
			j = (j + 1) & mask
		}
		m.keys[j], m.vals[j] = k, oldVals[i]
	}
}

func (m *refLineMap) find(line uint64) (int, bool) {
	mask := uint64(len(m.keys) - 1)
	for i := hashLine(line, mask); ; i = (i + 1) & mask {
		switch m.keys[i] {
		case line + 1:
			return int(i), true
		case 0:
			return int(i), false
		}
	}
}

func (m *refLineMap) set(i int, found bool, line, v uint64) {
	if !found {
		m.keys[i] = line + 1
		m.n++
	}
	m.vals[i] = v
}

type cacheOp struct {
	cpu   int
	addr  uint64
	size  int64
	write bool
}

// checkCacheModel drives ops through Cache and refCache on P processors
// and fails on the first access whose charged cycles or counters
// diverge, then compares the full coherence event streams.
func checkCacheModel(t *testing.T, p int, ops []cacheOp) {
	t.Helper()
	var gotRec, wantRec Recorder
	gotRec.Max, wantRec.Max = 1<<30, 1<<30
	ge := New(Config{Processors: p, Tracer: &gotRec})
	we := New(Config{Processors: p, Tracer: &wantRec})
	ref := newRefCache(p, &we.cost)
	gt, wt := ge.newThread("got", nil), we.newThread("want", nil)
	c := ge.cache
	for i, op := range ops {
		g0, w0 := gt.clock, wt.clock
		c.access(gt, op.cpu, op.addr, op.size, op.write)
		ref.access(wt, op.cpu, op.addr, op.size, op.write)
		if g, w := gt.clock-g0, wt.clock-w0; g != w {
			t.Fatalf("P=%d op %d %+v: charged %d cycles, oracle %d", p, i, op, g, w)
		}
		if c.Hits != ref.Hits || c.Misses != ref.Misses || c.Invalidations != ref.Invalidations || c.RFOs != ref.RFOs {
			t.Fatalf("P=%d op %d %+v: hits/misses/invals/RFOs %d/%d/%d/%d, oracle %d/%d/%d/%d", p, i, op,
				c.Hits, c.Misses, c.Invalidations, c.RFOs, ref.Hits, ref.Misses, ref.Invalidations, ref.RFOs)
		}
	}
	if len(gotRec.Events) != len(wantRec.Events) {
		t.Fatalf("P=%d: %d coherence events, oracle %d", p, len(gotRec.Events), len(wantRec.Events))
	}
	for i, ev := range gotRec.Events {
		w := wantRec.Events[i]
		w.Thread = ev.Thread // the two threads differ only in name
		if ev != w {
			t.Fatalf("P=%d: event %d is %+v, oracle %+v", p, i, ev, w)
		}
	}
}

var cacheModelProcs = []int{1, 2, 3, 8, 64, 1024}

// decodeCacheOps turns fuzz bytes into accesses, four bytes per op:
// the processor (ten bits), a write bit, a size class, and an address
// in either a dense 2 KiB hot region that many processors share or one
// of 256 scattered 64 KiB regions.
func decodeCacheOps(p int, data []byte) []cacheOp {
	sizes := [...]int64{1, 8, 16, 64, 72, 200}
	ops := make([]cacheOp, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		op := cacheOp{
			cpu:   int(uint16(b0)|uint16(b1&3)<<8) % p,
			write: b1&4 != 0,
			size:  sizes[int(b1>>3&7)%len(sizes)],
			addr:  0x10000 + uint64(b2)*8,
		}
		if b1&0x80 != 0 {
			op.addr += uint64(b3) << 16
		}
		ops = append(ops, op)
	}
	return ops
}

// randomCacheOps mixes a hot set of 16 lines, shared by every
// processor, with accesses scattered over a 1 GiB range, so lines gain
// three or more sharers and both tables grow several times.
func randomCacheOps(rng *rand.Rand, p, n int) []cacheOp {
	ops := make([]cacheOp, n)
	for i := range ops {
		op := cacheOp{cpu: rng.Intn(p), write: rng.Intn(3) == 0, size: int64(1 + rng.Intn(80))}
		if rng.Intn(2) == 0 {
			op.addr = 0x40000 + uint64(rng.Intn(16*64))
		} else {
			op.addr = uint64(rng.Int63n(1 << 30))
		}
		ops[i] = op
	}
	return ops
}

func TestCacheMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range cacheModelProcs {
		checkCacheModel(t, p, randomCacheOps(rng, p, 40_000))
	}
}

// FuzzCacheModel checks the one-probe line table against the two-table
// oracle on arbitrary access streams at every processor count.
func FuzzCacheModel(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for pi := range cacheModelProcs {
		seed := make([]byte, 4*512)
		for i := 0; i < len(seed); i += 4 {
			binary.LittleEndian.PutUint32(seed[i:], rng.Uint32())
		}
		f.Add(uint8(pi), seed)
	}
	f.Fuzz(func(t *testing.T, pi uint8, data []byte) {
		p := cacheModelProcs[int(pi)%len(cacheModelProcs)]
		checkCacheModel(t, p, decodeCacheOps(p, data))
	})
}
