package sim

// readyHeap is an indexed binary min-heap over the ready threads,
// ordered by (clock, slot). The root is the thread a scan over every
// thread would choose: the smallest clock, ties broken toward the
// lowest slot — so heap scheduling reproduces the scan's decisions
// exactly, in O(log R) per event instead of O(threads).
//
// Entries are stable while queued: a thread's clock only changes while
// it runs, and a running thread is never in the heap (it is popped
// before being resumed and re-pushed only when it parks again). The
// one exception is a spawn's rollback of run-ahead segments, which
// moves queued clocks back and then restores the order with init. Each
// thread carries its heap index so membership is O(1) to check and
// double-insertion is caught immediately.
type readyHeap struct {
	ts []*Thread
}

// schedBefore reports whether a must run before b.
func schedBefore(a, b *Thread) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.slot < b.slot)
}

func (h *readyHeap) len() int { return len(h.ts) }

// peek returns the next thread to run without removing it, or nil.
func (h *readyHeap) peek() *Thread {
	if len(h.ts) == 0 {
		return nil
	}
	return h.ts[0]
}

// replaceTop inserts t in place of the root and returns the old root,
// with one sift-down instead of a push and a pop. The heap must be
// non-empty.
func (h *readyHeap) replaceTop(t *Thread) *Thread {
	if t.heapIdx != -1 {
		panic("sim: thread " + t.name + " enqueued twice")
	}
	old := h.ts[0]
	old.heapIdx = -1
	h.ts[0] = t
	t.heapIdx = 0
	h.down(0)
	return old
}

// push inserts t, keyed on its current clock.
func (h *readyHeap) push(t *Thread) {
	if t.heapIdx != -1 {
		panic("sim: thread " + t.name + " enqueued twice")
	}
	t.heapIdx = int32(len(h.ts))
	h.ts = append(h.ts, t)
	h.up(len(h.ts) - 1)
}

// pop removes and returns the scheduling minimum, or nil when empty.
func (h *readyHeap) pop() *Thread {
	if len(h.ts) == 0 {
		return nil
	}
	t := h.ts[0]
	last := len(h.ts) - 1
	h.ts[0] = h.ts[last]
	h.ts[0].heapIdx = 0
	h.ts[last] = nil
	h.ts = h.ts[:last]
	if last > 0 {
		h.down(0)
	}
	t.heapIdx = -1
	return t
}

// init restores the heap order after queued clocks changed in place.
func (h *readyHeap) init() {
	for i := len(h.ts)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *readyHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !schedBefore(h.ts[i], h.ts[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *readyHeap) down(i int) {
	n := len(h.ts)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && schedBefore(h.ts[l], h.ts[min]) {
			min = l
		}
		if r < n && schedBefore(h.ts[r], h.ts[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}

func (h *readyHeap) swap(i, j int) {
	h.ts[i], h.ts[j] = h.ts[j], h.ts[i]
	h.ts[i].heapIdx = int32(i)
	h.ts[j].heapIdx = int32(j)
}

// enqueue marks t ready and inserts it into the ready queue. The
// caller must have finalized t.clock: the heap is keyed on it.
func (e *Engine) enqueue(t *Thread) {
	t.state = stateReady
	e.ready.push(t)
}

// wake makes w runnable no earlier than t's current time plus delay
// cycles, and shrinks t's lease so the scheduling invariant (the
// running thread never passes a runnable thread's clock) still holds.
func (e *Engine) wake(t, w *Thread, delay int64) {
	if t.clock > w.clock {
		w.clock = t.clock
	}
	w.clock += delay
	if w.clock > e.maxClock {
		e.maxClock = w.clock
	}
	e.running++
	e.enqueue(w)
	if w.clock < t.lease {
		t.lease = w.clock
	}
}
