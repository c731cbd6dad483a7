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
// Line state lives in one flat open-addressed table of per-line records
// (lineRec), not Go maps: an access costs a multiplicative hash and one
// or two linear probes over a pointer-free slice the garbage collector
// never scans. A record holds the line's version and last writer and,
// inline, the last version seen by the first two processors to touch
// the line; most lines are shared by at most two processors, so most
// accesses read one host cache line. Every further processor's seen
// version goes to one overflow table keyed by (line, processor). Dense
// paged arrays are no alternative because workloads touch a few lines
// per region of a brk space that realloc can grow very large.
type Cache struct {
	cost *CostModel

	// recs is the per-line table; n counts its occupied slots.
	recs []lineRec
	n    int
	// extra holds the seen versions of the third and later processors
	// to touch a line; extraN counts its occupied slots.
	extra  []sharerRec
	extraN int

	Hits   int64
	Misses int64
	// Invalidations counts misses on lines the processor had cached
	// but another processor's write invalidated (a subset of Misses).
	Invalidations int64
	RFOs          int64

	// memoKey and memoSlot remember the record of the most recently
	// accessed line (key line+1; zero when unset), so runs of accesses
	// to one line skip the hash probe. Records never move except when
	// recs grows, which clears the memo. Purely a host-side lookup
	// cache: the charged cycles are identical with it disabled.
	memoKey  uint64
	memoSlot int
}

// lineRec is one line's coherence state. key is line+1, so the zero
// record is an empty slot. A sharer field holds cpu+1, zero when free;
// sharer slots are claimed in first-touch order and never released,
// just as a processor's seen version is never dropped.
type lineRec struct {
	key     uint64
	version uint32
	writer  int32
	cpu0    int32
	seen0   uint32
	cpu1    int32
	seen1   uint32
}

// sharerRec is an overflow entry: the version processor cpu last saw
// of a line (key line+1, zero when empty).
type sharerRec struct {
	key  uint64
	cpu  int32
	seen uint32
}

// lineShift is log2 of the cache-line size: lines are 64 bytes.
const lineShift = 6

const (
	lineTableMinSize  = 1024 // slots; 32 KiB
	extraTableMinSize = 256  // slots; 4 KiB, allocated on first use
)

// newCache returns a cache model that prices accesses with cost.
func newCache(cost *CostModel) *Cache {
	return &Cache{
		cost: cost,
		recs: make([]lineRec, lineTableMinSize),
	}
}

// lineOf returns the line holding addr and whether the size-byte access
// at addr fits in it, as most do (a field, a word, a lock word). The
// charge sites send such an access straight to accessLine and only one
// that straddles lines to access.
func lineOf(addr uint64, size int64) (uint64, bool) {
	line := addr >> lineShift
	return line, line == (addr+uint64(max(size, 1))-1)>>lineShift
}

// access charges t for touching [addr, addr+size) on processor cpu, one
// line at a time. write distinguishes stores from loads.
func (c *Cache) access(t *Thread, cpu int, addr uint64, size int64, write bool) {
	first := addr >> lineShift
	last := (addr + uint64(max(size, 1)) - 1) >> lineShift
	for line := first; line <= last; line++ {
		c.accessLine(t, cpu, line, write)
	}
}

// accessLine charges t for touching one line on processor cpu. A memo
// miss probes the line's home slot before falling back to record, which
// finds most lines there.
func (c *Cache) accessLine(t *Thread, cpu int, line uint64, write bool) {
	var r *lineRec
	if key := line + 1; c.memoKey == key {
		r = &c.recs[c.memoSlot]
	} else {
		i := int(hashLine(line, uint64(len(c.recs)-1)))
		if c.recs[i].key != key {
			i = c.record(line)
		}
		c.memoKey, c.memoSlot = key, i
		r = &c.recs[i]
	}
	// A line with no write yet has version 0, which a processor that
	// has touched it has also seen: that read is a hit.
	var seen *uint32
	sok := true
	switch tag := int32(cpu) + 1; {
	case r.cpu0 == tag:
		seen = &r.seen0
	case r.cpu1 == tag:
		seen = &r.seen1
	case r.cpu0 == 0:
		r.cpu0, seen, sok = tag, &r.seen0, false
	case r.cpu1 == 0:
		r.cpu1, seen, sok = tag, &r.seen1, false
	default:
		seen, sok = c.extraSeen(line, int32(cpu))
	}
	var cycles int64
	if sok && *seen == r.version {
		cycles = c.cost.CacheHit
		c.Hits++
	} else {
		cycles = c.cost.CacheMiss
		c.Misses++
		if sok {
			// The processor had this line and the version moved on.
			// A write from this CPU would have refreshed its seen
			// version, and seen versions are never dropped, so a
			// stale one means another CPU's write invalidated the
			// line.
			c.Invalidations++
			t.e.traceArgs(t, EvCacheInval, "", int64(line), 0)
		}
	}
	if write {
		if r.writer != int32(cpu) && r.version != 0 {
			cycles += c.cost.CacheRFO
			c.RFOs++
			t.e.traceArgs(t, EvCacheRFO, "", int64(line), 0)
		}
		r.version++
		r.writer = int32(cpu)
	}
	*seen = r.version
	if !t.charge(cycles) {
		t.advanceShared(cycles)
	}
}

// hashLine spreads line numbers, which are near-sequential, across the
// table (Fibonacci multiplicative hashing).
func hashLine(line uint64, mask uint64) uint64 {
	return (line * 0x9E3779B97F4A7C15) >> 32 & mask
}

// hashSharer spreads (line, cpu) pairs. The processor must reach the
// low bits of the slot index: a hash that only moved high bits would
// put every processor of one line into a single probe run.
func hashSharer(line uint64, cpu int32, mask uint64) uint64 {
	return (line*0x9E3779B97F4A7C15 ^ uint64(cpu)*0xC2B2AE3D27D4EB4F) >> 32 & mask
}

// record returns the slot of line's record, inserting an empty one
// (version 0, no sharers) on first touch. The load factor is checked
// only on an insert: a lookup of a line already present never grows
// the table.
func (c *Cache) record(line uint64) int {
	mask := uint64(len(c.recs) - 1)
	key := line + 1
	i := hashLine(line, mask)
	for {
		switch c.recs[i].key {
		case key:
			return int(i)
		case 0:
			if (c.n+1)*4 > len(c.recs)*3 {
				c.growRecs()
				return c.record(line)
			}
			c.recs[i].key = key
			c.n++
			return int(i)
		}
		i = (i + 1) & mask
	}
}

func (c *Cache) growRecs() {
	old := c.recs
	c.recs = make([]lineRec, 2*len(old))
	mask := uint64(len(c.recs) - 1)
	for _, r := range old {
		if r.key == 0 {
			continue
		}
		j := hashLine(r.key-1, mask)
		for c.recs[j].key != 0 {
			j = (j + 1) & mask
		}
		c.recs[j] = r
	}
	c.memoKey = 0
}

// extraSeen returns cpu's overflow seen version for line, inserting it
// on first touch, and whether it was already present. The pointer is
// valid until the next call. As in record, the load factor is checked
// only on an insert.
func (c *Cache) extraSeen(line uint64, cpu int32) (*uint32, bool) {
	if len(c.extra) == 0 {
		c.extra = make([]sharerRec, extraTableMinSize)
	}
	mask := uint64(len(c.extra) - 1)
	key := line + 1
	i := hashSharer(line, cpu, mask)
	for {
		s := &c.extra[i]
		if s.key == key && s.cpu == cpu {
			return &s.seen, true
		}
		if s.key == 0 {
			if (c.extraN+1)*4 > len(c.extra)*3 {
				c.growExtra()
				return c.extraSeen(line, cpu)
			}
			s.key, s.cpu = key, cpu
			c.extraN++
			return &s.seen, false
		}
		i = (i + 1) & mask
	}
}

func (c *Cache) growExtra() {
	old := c.extra
	c.extra = make([]sharerRec, 2*len(old))
	mask := uint64(len(c.extra) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		j := hashSharer(s.key-1, s.cpu, mask)
		for c.extra[j].key != 0 {
			j = (j + 1) & mask
		}
		c.extra[j] = s
	}
}
