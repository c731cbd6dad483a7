// Package bgw is the stand-in for Ericsson's Billing Gateway, the
// commercial application of §5.2 and Figure 11 of the paper. BGw
// collects billing information (call data records, CDRs) from mobile
// networks; the paper extracted its allocation-heavy processing
// component (~45 kLOC) into a test program and measured the time to
// process 5,000 CDRs on an 8-processor Sun Enterprise 10000.
//
// The substitute preserves the two properties §5.2 hinges on:
//
//   - Only about half of the allocations are made from application
//     source code that the pre-processor can rewrite; the other half
//     come from opaque tool libraries (Tools.h++ strings and
//     collections) and always go straight to the C-library allocator.
//   - The rewritable allocations are dominated by data-type arrays
//     (char[], int[]) of varying but temporally similar sizes, which
//     Amplify handles with shadowed realloc rather than object pools.
//
// A processing thread parses each CDR into a record structure (one
// record object, several data arrays, several library objects), does
// the billing work, and releases everything — the churn that made the
// original BGw serialize on its allocator.
package bgw

import (
	"fmt"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
	"amplify/internal/target"
)

// RecordSize is the size of the application's CDR record object
// (timestamps, tariff fields, pointers to the arrays below). The
// amplified build adds one shadow pointer per array field.
const (
	RecordSize    = 72
	AmpRecordSize = RecordSize + 4*numArrays
	numArrays     = 6
	numLibAllocs  = 5
	libObjSize    = 40
)

// Config parameterizes a BGw run.
type Config struct {
	// CDRs is the number of call data records to process (paper: 5000).
	CDRs int
	// Threads is the number of processing threads.
	Threads int
	// Processors simulated; zero means 8 (the E10000 partition used).
	Processors int
	// Strategy names the C-library allocator underneath everything
	// ("serial", "smartheap", "ptmalloc", "hoard").
	Strategy string
	// Amplify applies the pre-processor to the application half of the
	// allocations (the library half is source the tool cannot see).
	Amplify bool
	// ObjectsToo also pools the record objects, not just the data-type
	// arrays. §5.2 reports the same result either way, because arrays
	// dominate the rewritable allocations.
	ObjectsToo bool
	// ParseWork and ProcessWork are the per-CDR computation charges.
	ParseWork   int64
	ProcessWork int64
	// Pool configures the Amplify runtime.
	Pool pool.Config
	// Tracer receives the run's event stream; a pool.Watcher tracer is
	// attached to the run's space, allocator and pool runtime first.
	// Host-side only.
	Tracer sim.Tracer
}

func (cfg Config) withDefaults() Config {
	if cfg.CDRs <= 0 {
		cfg.CDRs = 5000
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Strategy == "" {
		cfg.Strategy = "smartheap"
	}
	if cfg.ParseWork <= 0 {
		cfg.ParseWork = 260
	}
	if cfg.ProcessWork <= 0 {
		cfg.ProcessWork = 300
	}
	return cfg
}

// Result summarizes a BGw run: the machine's counters (PoolHits/PoolMisses
// count the record pool, ShadowReuses the array allocations served from
// shadow memory) plus the allocation split.
type Result struct {
	target.Counters
	Config Config
	// AppAllocs and LibAllocs split the C-library allocations between
	// application code and the opaque libraries (before amplification,
	// these are roughly equal — the 50% observation of §5.2).
	AppAllocs int64
	LibAllocs int64
}

// cdr describes one generated call data record. Sizes vary from record
// to record but stay in a narrow band — the temporal locality a billing
// stream exhibits (the same record layouts arrive over and over).
type cdr struct {
	arrayLens [numArrays]int64
}

// generate derives the i-th record deterministically.
func generate(i int) cdr {
	h := uint64(i)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	var c cdr
	// caller and callee numbers, routing info, cell path, charging
	// components, extra descriptor. Lengths vary up to 2x record to
	// record within each field's band — variable, but temporally local.
	top := [numArrays]int64{32, 32, 64, 128, 128, 256}
	for k := 0; k < numArrays; k++ {
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		half := top[k] / 2
		c.arrayLens[k] = half + 1 + int64(h%uint64(half))
	}
	return c
}

// Run executes the BGw test program and returns its measurements.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Config: cfg}
	m, err := target.Boot(target.Config{Processors: cfg.Processors, Strategy: cfg.Strategy, Pool: cfg.Pool, Tracer: cfg.Tracer},
		target.Options{ElidePoolLocks: cfg.Threads == 1})
	if err != nil {
		return res, err
	}
	// Workers take the amplified path exactly when they hold a runtime.
	base := m.Alloc
	var rt *pool.Runtime
	var recPool *pool.ClassPool
	if cfg.Amplify {
		rt = m.Pools
		if cfg.ObjectsToo {
			recPool = rt.NewClassPool("CDRRecord", AmpRecordSize)
		}
	}

	var appAllocs, libAllocs int64
	per := cfg.CDRs / cfg.Threads
	extra := cfg.CDRs % cfg.Threads
	m.Engine.Go("main", func(c *sim.Ctx) {
		next := 0
		for i := 0; i < cfg.Threads; i++ {
			n := per
			if i < extra {
				n++
			}
			first := next
			next += n
			c.Go(fmt.Sprintf("bgw%d", i), func(cc *sim.Ctx) {
				w := &worker{cfg: cfg, base: base, rt: rt, recPool: recPool}
				w.run(cc, first, first+n)
				appAllocs += w.appAllocs
				libAllocs += w.libAllocs
			})
		}
	})
	res.Counters = m.Run()
	res.AppAllocs = appAllocs
	res.LibAllocs = libAllocs
	return res, nil
}

// worker processes a contiguous range of CDRs on one thread.
type worker struct {
	cfg     Config
	base    alloc.Allocator
	rt      *pool.Runtime
	recPool *pool.ClassPool

	// Amplified state: the record's shadowed array blocks. (In the
	// generated C++ these live in the record object's shadow fields.
	// Per-thread state equals them while each thread takes back from
	// recPool only records it freed itself: true when every thread has
	// a pool shard of its own, not when threads share one.)
	shadowRefs  [numArrays]mem.Ref
	shadowSizes [numArrays]int64

	appAllocs int64
	libAllocs int64
}

func (w *worker) run(c *sim.Ctx, first, last int) {
	for i := first; i < last; i++ {
		w.processCDR(c, generate(i))
	}
	// Drop the shadow blocks at thread exit.
	for k := 0; k < numArrays; k++ {
		if w.shadowRefs[k] != mem.Nil {
			w.base.Free(c, w.shadowRefs[k])
			w.shadowRefs[k] = mem.Nil
		}
	}
}

func (w *worker) processCDR(c *sim.Ctx, r cdr) {
	cfg := w.cfg

	// --- Parse: build the record structure.
	var rec mem.Ref
	if w.recPool != nil {
		var pooled bool
		rec, pooled = w.recPool.Alloc(c)
		if !pooled {
			w.appAllocs++
		}
	} else {
		rec = w.base.Alloc(c, RecordSize)
		w.appAllocs++
	}

	var arrays [numArrays]mem.Ref
	var sizes [numArrays]int64
	for k := 0; k < numArrays; k++ {
		want := r.arrayLens[k]
		if w.rt != nil {
			// buffer = realloc(bufferShadow, length) — §5.2.
			prev := w.shadowRefs[k]
			arrays[k], sizes[k] = w.rt.ShadowRealloc(c, prev, w.shadowSizes[k], want)
			w.shadowRefs[k] = mem.Nil
			if arrays[k] != prev {
				w.appAllocs++
			}
		} else {
			arrays[k] = w.base.Alloc(c, want)
			sizes[k] = w.base.UsableSize(arrays[k])
			w.appAllocs++
		}
	}

	// Library objects (Tools.h++ strings etc.): source unavailable,
	// always straight to the C-library allocator.
	var libs [numLibAllocs]mem.Ref
	for k := 0; k < numLibAllocs; k++ {
		libs[k] = w.base.Alloc(c, libObjSize)
		w.libAllocs++
	}

	// Fill the record and buffers.
	c.Write(uint64(rec), RecordSize)
	for k := 0; k < numArrays; k++ {
		c.Write(uint64(arrays[k]), r.arrayLens[k])
	}
	c.Work(cfg.ParseWork)

	// --- Process: the billing computation reads everything.
	c.Read(uint64(rec), RecordSize)
	for k := 0; k < numArrays; k++ {
		c.Read(uint64(arrays[k]), r.arrayLens[k])
	}
	for k := 0; k < numLibAllocs; k++ {
		c.Read(uint64(libs[k]), libObjSize)
	}
	c.Work(cfg.ProcessWork)

	// --- Release the structure.
	for k := 0; k < numLibAllocs; k++ {
		w.base.Free(c, libs[k])
	}
	for k := 0; k < numArrays; k++ {
		if w.rt != nil {
			// bufferShadow = buffer — unless over the shadow size cap.
			if w.rt.ShadowSave(c, arrays[k], sizes[k]) {
				w.shadowRefs[k] = arrays[k]
				w.shadowSizes[k] = sizes[k]
				c.Write(uint64(rec)+uint64(RecordSize+4*k), 4)
			} else {
				w.shadowRefs[k] = mem.Nil
				w.shadowSizes[k] = 0
			}
		} else {
			w.base.Free(c, arrays[k])
		}
	}
	if w.recPool != nil {
		w.recPool.Free(c, rec)
	} else {
		w.base.Free(c, rec)
	}
}
