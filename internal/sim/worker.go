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
// Synchronization: a worker is an iter.Pull coroutine, and the
// coroutines nest. The scheduling loop (Engine.schedule) runs on the
// worker of the thread that stops, or in Run at the bottom; it resumes
// the next thread's worker with next, stacking itself inside that
// call, and every worker hands control back to the level below it
// with yield. Exactly one coroutine runs at any moment and every access
// to engine or worker state is ordered by the coroutine switches,
// without a lock.
type worker struct {
	// ctx is the context of the bound thread: the thread to execute at
	// the next resume, and the *Ctx its function receives. It lives in
	// the worker so a spawn allocates no context of its own, and it is
	// cleared when the thread retires so an idle worker keeps no
	// finished thread reachable.
	ctx   Ctx
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// stacked is set while the worker's thread is stopped inside the
	// scheduling loop and that loop has resumed another worker: the
	// worker is suspended in next, not in yield, so only unwinding
	// down to it (see Engine.schedule) can restart its thread.
	stacked bool
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
	w.ctx.t = t
	t.w = w
}

// run is the coroutine body: execute the bound thread to completion,
// hand control back to the level below, and repeat with whichever
// thread is bound at the next resume. A false yield means the engine is
// stopping the worker.
func (w *worker) run(yield func(struct{}) bool) {
	w.yield = yield
	for {
		t := w.ctx.t
		e := t.e
		t.exec(&w.ctx)
		w.ctx.t = nil
		e.switches++
		if !yield(struct{}{}) {
			return
		}
	}
}

// resume switches from the scheduling loop of self (nil in Run) to t's
// worker, and returns when a worker yields back down to this level.
func (e *Engine) resume(self, t *Thread) {
	e.switches++
	if self == nil {
		t.w.next()
		return
	}
	self.w.stacked = true
	t.w.next()
	self.w.stacked = false
}

// down yields from self's scheduling loop to the level below. It
// returns once a later scheduling loop has granted self and resumed its
// worker. A false yield means Run is tearing the simulation down (a
// panic in another thread, or a deadlock): the thread then unwinds
// with a threadUnwind panic, which exec swallows.
func (e *Engine) down(self *Thread) {
	e.switches++
	if !self.w.yield(struct{}{}) {
		panic(threadUnwind{})
	}
}

// stopWorkers ends every worker coroutine. After a normal run all of
// them are idle; after a thread panic or a deadlock some are suspended
// mid-thread and unwind (see Engine.down), so no goroutine outlives
// Run.
func (e *Engine) stopWorkers() {
	for _, w := range e.workers {
		w.stop()
	}
	e.workers, e.idleWorkers = nil, nil
}
