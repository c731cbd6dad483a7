package bgw

import (
	"fmt"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
)

// PipelineConfig parameterizes the producer/consumer variant of the
// BGw experiment: one parser thread receives "network" CDRs, builds a
// record structure per CDR and hands it over a bounded queue to
// processing threads, which do the billing work and release the
// structure. This is the flow architecture the paper describes for BGw
// — and it is adversarial for structure pools, because the thread that
// frees a structure is never the thread that allocates the next one:
// without shard stealing (pool.Config.StealShards), every parser
// allocation misses while the processors' shards fill up.
type PipelineConfig struct {
	CDRs       int
	Processors int // simulated CPUs
	Workers    int // processing threads (the parser is one more)
	QueueDepth int
	Strategy   string
	Amplify    bool
	// Steal enables pool shard stealing (only meaningful with Amplify).
	Steal       bool
	ParseWork   int64
	ProcessWork int64
	Pool        pool.Config
	// Tracer receives the run's event stream, as in Config.
	Tracer sim.Tracer
}

func (cfg PipelineConfig) withDefaults() PipelineConfig {
	if cfg.CDRs <= 0 {
		cfg.CDRs = 5000
	}
	if cfg.Processors <= 0 {
		cfg.Processors = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
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

// PipelineResult reports a pipeline run.
type PipelineResult struct {
	Config     PipelineConfig
	Makespan   int64
	Sim        sim.Stats
	Alloc      alloc.Stats
	PoolHits   int64
	PoolMisses int64
	PoolSteals int64
	// ShadowReuses counts the processors' work-buffer reallocations
	// served from shadow memory.
	ShadowReuses int64
	Footprint    int64
	// Heap is the underlying allocator's post-run introspection snapshot.
	Heap alloc.HeapInfo
}

// record is a parsed CDR travelling from the parser to a processor.
type record struct {
	rec    mem.Ref
	arrays [numArrays]mem.Ref
	sizes  [numArrays]int64
	lens   [numArrays]int64
}

// RunPipeline executes the producer/consumer BGw variant.
func RunPipeline(cfg PipelineConfig) (PipelineResult, error) {
	cfg = cfg.withDefaults()
	e := sim.New(sim.Config{Processors: cfg.Processors, Tracer: cfg.Tracer})
	sp := mem.NewSpace()
	res := PipelineResult{Config: cfg}

	base, err := alloc.New(cfg.Strategy, e, sp, alloc.Options{Threads: cfg.Workers + 1})
	if err != nil {
		return res, err
	}
	var rt *pool.Runtime
	var recPool *pool.ClassPool
	if cfg.Amplify {
		pcfg := cfg.Pool
		pcfg.StealShards = cfg.Steal
		rt = pool.NewRuntime(e, base, pcfg)
		recPool = rt.NewClassPool("CDRRecord", AmpRecordSize)
	}
	pool.Watch(cfg.Tracer, sp, base, rt)
	// Shadow state of pooled records: the array blocks parked in each
	// record's shadow fields (the Go-side mirror of those fields).
	recShadows := make(map[mem.Ref]*record)

	queue := e.NewChannel("bgw.queue", cfg.QueueDepth)
	done := e.NewWaitGroup()
	done.Add(cfg.Workers)

	e.Go("main", func(c *sim.Ctx) {
		c.Go("parser", func(cc *sim.Ctx) {
			parser(cc, cfg, base, rt, recPool, recShadows, queue)
		})
		for w := 0; w < cfg.Workers; w++ {
			c.Go(fmt.Sprintf("proc%d", w), func(cc *sim.Ctx) {
				processor(cc, cfg, base, rt, recPool, recShadows, queue)
				done.Done(cc)
			})
		}
	})
	res.Makespan = e.Run()
	res.Sim = e.Stats()
	res.Alloc = base.Stats()
	if rt != nil {
		res.ShadowReuses = rt.ShadowReuses
	}
	if recPool != nil {
		res.PoolHits = recPool.Hits
		res.PoolMisses = recPool.Misses
		res.PoolSteals = recPool.Steals
	}
	res.Footprint = sp.Footprint()
	if insp, ok := base.(alloc.Inspector); ok {
		res.Heap = insp.Inspect()
	}
	return res, nil
}

// parser builds one record structure per CDR and sends it downstream.
func parser(c *sim.Ctx, cfg PipelineConfig, base alloc.Allocator, rt *pool.Runtime,
	recPool *pool.ClassPool, recShadows map[mem.Ref]*record, queue *sim.Channel) {
	for i := 0; i < cfg.CDRs; i++ {
		cd := generate(i)
		r := &record{}
		var reused bool
		if recPool != nil {
			r.rec, reused = recPool.Alloc(c)
		} else {
			r.rec = base.Alloc(c, RecordSize)
		}
		var shadows *record
		if reused {
			shadows = recShadows[r.rec]
		}
		for k := 0; k < numArrays; k++ {
			want := cd.arrayLens[k]
			if rt != nil && shadows != nil {
				// buffer = realloc(bufferShadow, length): the pooled
				// record carried its previous arrays along.
				prev, prevSize := shadows.arrays[k], shadows.sizes[k]
				c.Read(uint64(r.rec)+uint64(RecordSize+4*k), 4)
				r.arrays[k], r.sizes[k] = rt.ShadowRealloc(c, prev, prevSize, want)
			} else {
				r.arrays[k] = base.Alloc(c, want)
				r.sizes[k] = base.UsableSize(r.arrays[k])
			}
			r.lens[k] = want
			c.Write(uint64(r.arrays[k]), want)
		}
		if reused {
			delete(recShadows, r.rec)
		}
		c.Write(uint64(r.rec), RecordSize)
		c.Work(cfg.ParseWork)
		queue.Send(c, r)
	}
	queue.Close(c)
}

// processor drains the queue, does the billing work in its own
// shadow-reallocated node buffers, and releases each record.
func processor(c *sim.Ctx, cfg PipelineConfig, base alloc.Allocator, rt *pool.Runtime,
	recPool *pool.ClassPool, recShadows map[mem.Ref]*record, queue *sim.Channel) {
	// Long-lived per-node work buffers (§5.2's reallocated arrays).
	var workRefs [numArrays]mem.Ref
	var workSizes [numArrays]int64
	for {
		v, ok := queue.Recv(c)
		if !ok {
			break
		}
		r := v.(*record)
		// Copy the record's data into the node's work buffers.
		for k := 0; k < numArrays; k++ {
			if rt != nil {
				workRefs[k], workSizes[k] = rt.ShadowRealloc(c, workRefs[k], workSizes[k], r.lens[k])
			} else {
				if workRefs[k] != mem.Nil {
					base.Free(c, workRefs[k])
				}
				workRefs[k] = base.Alloc(c, r.lens[k])
				workSizes[k] = base.UsableSize(workRefs[k])
			}
			c.Read(uint64(r.arrays[k]), r.lens[k])
			c.Write(uint64(workRefs[k]), r.lens[k])
		}
		c.Read(uint64(r.rec), RecordSize)
		c.Work(cfg.ProcessWork)
		// Release the record structure.
		if recPool != nil {
			// Shadow the arrays in the record's fields, then pool it.
			for k := 0; k < numArrays; k++ {
				c.Write(uint64(r.rec)+uint64(RecordSize+4*k), 4)
			}
			if recPool.Free(c, r.rec) {
				recShadows[r.rec] = r
			} else {
				for k := 0; k < numArrays; k++ {
					base.Free(c, r.arrays[k])
				}
			}
		} else {
			for k := 0; k < numArrays; k++ {
				base.Free(c, r.arrays[k])
			}
			base.Free(c, r.rec)
		}
	}
	// Node teardown.
	for k := 0; k < numArrays; k++ {
		if workRefs[k] != mem.Nil {
			base.Free(c, workRefs[k])
		}
	}
}
