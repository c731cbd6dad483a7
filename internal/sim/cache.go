package sim

// Cache models per-processor caches at cache-line granularity with a
// simplified MESI protocol: every line has a global version number that
// is bumped on each write, and each processor remembers the last version
// it observed. A processor whose remembered version is stale pays a miss;
// a store to a line last written by a different processor additionally
// pays a read-for-ownership. Capacity is unbounded — the experiments in
// the paper are dominated by coherence traffic (false sharing, line
// ping-pong between pools and threads), not by capacity misses.
//
// Line state lives in flat open-addressed tables (lineMap), not Go
// maps: an access costs a multiplicative hash and one or two linear
// probes over scalar slices the garbage collector never scans. With the
// interpreter fast paths elsewhere, the per-access map hashing here was
// the largest remaining term in end-to-end VM runs; dense paged arrays
// are no alternative because workloads touch a few lines per region of
// a brk space that realloc can grow very large.
type Cache struct {
	lineShift uint
	cost      *CostModel
	// global holds, per line, the current version and last writer.
	global lineMap
	// seen[cpu] holds, per line, the version last observed by that
	// processor.
	seen []lineMap

	Hits   int64
	Misses int64
	// Invalidations counts misses on lines the processor had cached
	// but another processor's write invalidated (a subset of Misses).
	Invalidations int64
	RFOs          int64

	// memo caches the table coordinates of the most recently accessed
	// line, so runs of accesses to one line (adjacent fields of an
	// object, a read-modify-write) skip both hash lookups. The cached
	// indexes stay valid while neither table reallocates (gen match)
	// and, for a line absent from global, while no insert can have
	// claimed its empty slot (n match). Purely a host-side lookup
	// cache: the charged cycles are identical with it disabled.
	memoOK   bool
	memoGok  bool
	memoCPU  int32
	memoLine uint64
	memoSi   int
	memoGi   int
	memoSGen uint32
	memoGGen uint32
	memoGN   int
}

type lineState struct {
	version uint32
	writer  int32
}

// newCache returns a cache model for p processors with the given line
// size, which must be a power of two.
func newCache(p int, lineSize int64, cost *CostModel) *Cache {
	shift := uint(0)
	for int64(1)<<shift < lineSize {
		shift++
	}
	return &Cache{
		lineShift: shift,
		cost:      cost,
		seen:      make([]lineMap, p),
	}
}

// LineSize reports the cache line size in bytes.
func (c *Cache) LineSize() int64 { return int64(1) << c.lineShift }

// access charges t for touching [addr, addr+size) on processor cpu.
// write distinguishes stores from loads.
func (c *Cache) access(t *Thread, cpu int, addr uint64, size int64, write bool) {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	for line := first; line <= last; line++ {
		c.accessLine(t, cpu, line, write)
	}
}

func (c *Cache) accessLine(t *Thread, cpu int, line uint64, write bool) {
	// Reserve capacity up front so the slot indexes find returns stay
	// valid across the inserts below.
	s := &c.seen[cpu]
	s.ensure()
	g := &c.global
	if write {
		g.ensure()
	}
	var si, gi int
	var sok, gok, memoHit bool
	if c.memoOK && c.memoLine == line && c.memoCPU == int32(cpu) &&
		c.memoSGen == s.gen && c.memoGGen == g.gen &&
		(c.memoGok || c.memoGN == g.n) {
		si, gi = c.memoSi, c.memoGi
		sok, gok, memoHit = true, c.memoGok, true
	} else {
		si, sok = s.find(line)
		gi, gok = g.find(line)
	}
	var st lineState
	if gok {
		st = lineState{version: uint32(g.vals[gi]), writer: int32(g.vals[gi] >> 32)}
	}
	if !write && memoHit && uint32(s.vals[si]) == st.version {
		// Memoized read hit: nothing in either table changes, so skip
		// the table write-back and memo refresh below.
		c.Hits++
		t.CacheHits++
		t.advance(c.cost.CacheHit)
		return
	}
	var cycles int64
	if sok && uint32(s.vals[si]) == st.version {
		cycles = c.cost.CacheHit
		c.Hits++
		t.CacheHits++
	} else {
		cycles = c.cost.CacheMiss
		c.Misses++
		t.CacheMisses++
		if sok {
			// The processor had this line and the version moved on.
			// A write from this CPU would have refreshed the seen
			// entry, and seen entries are never dropped, so a stale
			// entry means another CPU's write invalidated the line.
			c.Invalidations++
			t.CacheInvalidations++
			t.e.traceArgs(t, EvCacheInval, "", int64(line), 0)
		}
	}
	if write {
		if st.writer != int32(cpu) && st.version != 0 {
			cycles += c.cost.CacheRFO
			c.RFOs++
			t.e.traceArgs(t, EvCacheRFO, "", int64(line), 0)
		}
		st.version++
		st.writer = int32(cpu)
		g.set(gi, gok, line, uint64(st.version)|uint64(uint32(st.writer))<<32)
	}
	s.set(si, sok, line, uint64(st.version))
	c.memoOK, c.memoGok = true, gok || write
	c.memoCPU, c.memoLine = int32(cpu), line
	c.memoSi, c.memoGi = si, gi
	c.memoSGen, c.memoGGen = s.gen, g.gen
	c.memoGN = g.n
	t.advance(cycles)
}

// lineMap is an open-addressed hash table from cache-line number to a
// 64-bit payload, with linear probing and no deletion. Keys are stored
// as line+1 so the zero slot means empty; both arrays are scalar, so
// the table is invisible to the garbage collector.
type lineMap struct {
	keys []uint64
	vals []uint64
	n    int
	// gen counts reallocations (initial allocation and growth);
	// any slot index obtained at an older gen is stale.
	gen uint32
}

const lineMapMinSize = 1024 // slots; 16 KiB per table

// hashLine spreads line numbers, which are near-sequential, across the
// table (Fibonacci multiplicative hashing).
func hashLine(line uint64, mask uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> 32 & mask
}

// ensure reserves room for one insertion, growing at 3/4 load so the
// slot index a subsequent find returns remains insertable.
func (m *lineMap) ensure() {
	if cap := len(m.keys); cap == 0 {
		m.keys = make([]uint64, lineMapMinSize)
		m.vals = make([]uint64, lineMapMinSize)
		m.gen++
	} else if (m.n+1)*4 > cap*3 {
		m.grow(cap * 2)
	}
}

func (m *lineMap) grow(size int) {
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]uint64, size)
	m.vals = make([]uint64, size)
	m.gen++
	mask := uint64(size - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := hashLine(k-1, mask)
		for m.keys[j] != 0 {
			j = (j + 1) & mask
		}
		m.keys[j] = k
		m.vals[j] = oldVals[i]
	}
}

// find returns the slot holding line, or the empty slot where it would
// be inserted, and whether it was found. The table must be non-empty or
// ensured first.
func (m *lineMap) find(line uint64) (int, bool) {
	if len(m.keys) == 0 {
		return -1, false
	}
	mask := uint64(len(m.keys) - 1)
	k := line + 1
	i := hashLine(line, mask)
	for {
		kk := m.keys[i]
		if kk == k {
			return int(i), true
		}
		if kk == 0 {
			return int(i), false
		}
		i = (i + 1) & mask
	}
}

// set stores v at the slot find returned; found says whether the slot
// already held the key.
func (m *lineMap) set(i int, found bool, line, v uint64) {
	if !found {
		m.keys[i] = line + 1
		m.n++
	}
	m.vals[i] = v
}
