package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"amplify/internal/alloc"
	"amplify/internal/sim"
	"amplify/internal/target"
)

// cell is one simulation of an experiment grid: the key that names it
// in the report, and the run that measures it. Each cell family has
// one constructor that builds both, so the key format and the
// workload configuration live in one place. run takes the tracer a
// profiled re-run attaches (Explain); the memoized run passes nil.
type cell struct {
	key string
	run func(tr sim.Tracer) (measured, error)
}

// measured is one cell's outcome: the machine's counters every family
// reports, the family's contribution to Report.Metrics, and the
// family's own result for its table (read with resultOf).
type measured struct {
	target.Counters
	// Wall is the host seconds of the memoized run; recalls keep it.
	Wall     float64
	counters []counter
	result   any
}

// counter is one named addend of Report.Metrics.
type counter struct {
	name string
	v    int64
}

// simCounters is the Metrics contribution shared by the families
// that count their simulator and allocator statistics: one cell of
// the family, plus the counters themselves.
func simCounters(family string, st sim.Stats, a alloc.Stats) []counter {
	return []counter{
		{family, 1},
		{"sim.lock.acquires", st.LockAcquires},
		{"sim.lock.contended", st.LockContended},
		{"sim.lock.wait_cycles", st.LockWaitTime},
		{"sim.cache.hits", st.CacheHits},
		{"sim.cache.misses", st.CacheMisses},
		{"sim.cache.invalidations", st.CacheInvalidations},
		{"sim.cache.rfos", st.CacheRFOs},
		{"sim.migrations", st.Migrations},
		{"sim.chan.sends", st.ChanSends},
		{"sim.chan.recvs", st.ChanRecvs},
		{"sim.chan.blocked_sends", st.ChanBlockedSends},
		{"sim.chan.blocked_recvs", st.ChanBlockedRecvs},
		{"sim.wg.waits", st.WaitGroupWaits},
		{"sim.wg.dones", st.WaitGroupDones},
		{"sim.atomic.cas", st.AtomicCAS},
		{"sim.atomic.cas_failed", st.AtomicCASFailed},
		{"sim.atomic.faa", st.AtomicFAA},
		{"sim.atomic.loads", st.AtomicLoads},
		{"sim.atomic.stores", st.AtomicStores},
		{"alloc.allocs", a.Allocs},
		{"alloc.frees", a.Frees},
	}
}

// measuredOf pairs a family result with its machine counters.
func measuredOf(result any, c target.Counters) measured {
	return measured{Counters: c, result: result}
}

// resultOf runs (or recalls) c and returns its family's result.
func resultOf[T any](r *Runner, c cell) (T, error) {
	m, err := r.cells.do(c)
	if err != nil {
		var zero T
		return zero, err
	}
	return m.result.(T), nil
}

// cellStore is the Runner's memo: a concurrency-safe, lazily
// initialized, singleflight map from cell key to measurement. The
// first caller of a key computes it; concurrent callers of the same key
// block on that computation instead of repeating it (the scaleup
// figures therefore still reuse the speedup figures' measurements, even
// when both are being assembled at once); later callers get the
// memoized value. The map itself is created on first use, so a
// zero-value Runner used directly — bypassing the worker pool — is
// safe too.
type cellStore struct {
	mu sync.Mutex
	m  map[string]*cellEntry
}

type cellEntry struct {
	once sync.Once
	done atomic.Bool
	val  measured
	err  error
}

// do returns the memoized measurement of c, running it at most once.
func (s *cellStore) do(c cell) (measured, error) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]*cellEntry)
	}
	e := s.m[c.key]
	if e == nil {
		e = &cellEntry{}
		s.m[c.key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		start := time.Now()
		e.val, e.err = c.run(nil)
		e.val.Wall = time.Since(start).Seconds()
		e.done.Store(true)
	})
	return e.val, e.err
}

// len reports the number of keys ever requested.
func (s *cellStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// completed visits every successfully computed cell. Entries whose
// computation is still in flight (or failed) are skipped; the done flag
// publishes val with the necessary happens-before edge.
func (s *cellStore) completed(visit func(key string, m measured)) {
	s.mu.Lock()
	entries := make(map[string]*cellEntry, len(s.m))
	for k, e := range s.m {
		entries[k] = e
	}
	s.mu.Unlock()
	for k, e := range entries {
		if e.done.Load() && e.err == nil {
			visit(k, e.val)
		}
	}
}

// parallelDo runs the tasks on a bounded pool of r.Jobs goroutines
// (sequentially when Jobs <= 1) and returns the first error.
func (r *Runner) parallelDo(tasks []func() error) error {
	jobs := r.Jobs
	if jobs > len(tasks) {
		jobs = len(tasks)
	}
	if jobs <= 1 {
		for _, task := range tasks {
			if err := task(); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, jobs)
		mu       sync.Mutex
		firstErr error
	)
	for _, task := range tasks {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			if err := task(); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Precompute warms every memoized cell the named experiments will
// read, running up to r.Jobs simulations concurrently. Experiment
// assembly afterwards finds all of its measurements in the memo and
// reduces to table formatting, so the rendered output is byte-identical
// to a sequential run: results are gathered by key, never by completion
// order. Precompute is optional — any cell it misses is simply computed
// (sequentially) during assembly.
func (r *Runner) Precompute(names []string) error {
	var tasks []func() error
	for _, name := range names {
		e, err := lookup(name)
		if err != nil {
			return err
		}
		for _, c := range e.cells(r) {
			tasks = append(tasks, func() error {
				_, err := r.cells.do(c)
				return err
			})
		}
	}
	return r.parallelDo(tasks)
}
