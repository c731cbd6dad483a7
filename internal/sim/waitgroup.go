package sim

// WaitGroup is a virtual-time analogue of sync.WaitGroup for joining
// simulated threads.
type WaitGroup struct {
	e       *Engine
	count   int
	waiters []*Thread

	// Waits counts Wait calls that had to block; Dones counts Done
	// calls. Both are folded into Engine.Stats.
	Waits int64
	Dones int64
}

// NewWaitGroup creates a WaitGroup registered on the engine.
func (e *Engine) NewWaitGroup() *WaitGroup {
	wg := &WaitGroup{e: e}
	e.waitgroups = append(e.waitgroups, wg)
	return wg
}

// Add increments the counter by n. It may be called from outside the
// simulation (before Run) or by a running thread.
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
}

// Done decrements the counter; when it reaches zero all waiters resume
// at the caller's current time.
func (wg *WaitGroup) Done(c *Ctx) {
	wg.count--
	wg.Dones++
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	c.t.e.traceArgs(c.t, EvWaitGroupDone, "", int64(wg.count), 0)
	if wg.count > 0 {
		return
	}
	t := c.t
	for _, w := range wg.waiters {
		t.e.wake(t, w, 0)
	}
	clear(wg.waiters)
	wg.waiters = wg.waiters[:0]
}

// Wait blocks the calling thread until the counter reaches zero.
func (wg *WaitGroup) Wait(c *Ctx) {
	if wg.count == 0 {
		return
	}
	t := c.t
	wg.Waits++
	t.e.trace(t, EvWaitGroupWait, "")
	wg.waiters = append(wg.waiters, t)
	t.state = stateBlocked
	t.e.running--
	t.yield()
}
