package sim

import "iter"

// worker is a pooled coroutine that executes simulated threads one
// after another. Starting a goroutine (and growing its stack) is the
// dominant host cost of a short-lived simulated thread, so instead of
// one coroutine per thread the engine binds each thread to a worker at
// its first dispatch and returns the worker to a free list when the
// thread retires. A recycled worker keeps its grown stack, so spawn
// churn (millions of short-lived threads) stops paying goroutine
// creation and stack growth per thread.
//
// Synchronization: a worker is an iter.Pull coroutine. Engine.Run
// resumes it with next and it hands control back with yield, so exactly
// one of them runs at any moment and every access to engine or worker
// state is ordered by the coroutine switches, without a lock.
type worker struct {
	t     *Thread // thread to execute at the next resume
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// bindWorker attaches t to a pooled (or fresh) worker. Called by the
// scheduling loop at t's first dispatch.
func (e *Engine) bindWorker(t *Thread) {
	var w *worker
	if n := len(e.idleWorkers); n > 0 {
		w = e.idleWorkers[n-1]
		e.idleWorkers[n-1] = nil
		e.idleWorkers = e.idleWorkers[:n-1]
		e.workersReused++
	} else {
		w = &worker{}
		w.next, w.stop = iter.Pull(w.run)
		e.workers = append(e.workers, w)
		e.workersSpawned++
	}
	w.t = t
	t.w = w
}

// run is the coroutine body: execute the bound thread to completion,
// hand control back to Run, and repeat with whichever thread is
// bound at the next resume. A false yield means the engine is stopping
// the worker.
func (w *worker) run(yield func(struct{}) bool) {
	w.yield = yield
	for {
		t := w.t
		w.t = nil
		t.exec()
		if !yield(struct{}{}) {
			return
		}
	}
}

// stopWorkers ends every worker coroutine. After a normal run all of
// them are idle; after a thread panic or a deadlock some are suspended
// mid-thread and unwind (see Thread.yield), so no goroutine outlives
// Run.
func (e *Engine) stopWorkers() {
	for _, w := range e.workers {
		w.stop()
	}
	e.workers, e.idleWorkers = nil, nil
}
