package sim

// Channel is a bounded FIFO queue in virtual time, the building block
// for producer/consumer pipelines (BGw's CDR flow). Send blocks when
// the buffer is full; Recv blocks when it is empty. Close wakes all
// blocked receivers; receiving from a closed, drained channel returns
// ok == false.
type Channel struct {
	e      *Engine
	name   string
	cap    int
	buf    []any
	closed bool

	sendQ []chanWaiter // blocked senders with their parked values
	recvQ []*Thread    // blocked receivers

	// Sends and Recvs count completed operations.
	Sends, Recvs int64
	// BlockedSends/BlockedRecvs count operations that had to wait.
	BlockedSends, BlockedRecvs int64
}

type chanWaiter struct {
	t *Thread
	v any
}

// NewChannel creates a channel with the given buffer capacity (minimum
// 1), registered on the engine so Stats folds its counters.
func (e *Engine) NewChannel(name string, capacity int) *Channel {
	if capacity < 1 {
		capacity = 1
	}
	ch := &Channel{e: e, name: name, cap: capacity}
	e.channels = append(e.channels, ch)
	return ch
}

// wake makes w runnable at the caller's time plus the handoff latency.
func (ch *Channel) wake(t *Thread, w *Thread) {
	ch.e.wake(t, w, ch.e.cost.LockHandoff)
}

// Send enqueues v, blocking while the channel is full. Sending on a
// closed channel panics, like Go channels.
func (ch *Channel) Send(c *Ctx, v any) {
	t := c.t
	t.advance(ch.e.cost.LockAcquire) // queue manipulation cost
	if ch.closed {
		panic("sim: send on closed channel " + ch.name)
	}
	if len(ch.buf) < ch.cap {
		ch.buf = append(ch.buf, v)
		ch.Sends++
		ch.e.traceArgs(t, EvChanSend, ch.name, int64(len(ch.buf)), 0)
		if len(ch.recvQ) > 0 {
			w := ch.recvQ[0]
			ch.recvQ[0] = nil // the array outlives the woken thread
			ch.recvQ = ch.recvQ[1:]
			ch.wake(t, w)
		}
		t.maybeYield()
		return
	}
	// Full: park the value with the sender.
	ch.BlockedSends++
	ch.e.traceArgs(t, EvChanBlocked, ch.name, 0, 0)
	ch.sendQ = append(ch.sendQ, chanWaiter{t: t, v: v})
	t.state = stateBlocked
	t.e.running--
	t.yield()
	ch.Sends++
	ch.e.traceArgs(t, EvChanSend, ch.name, int64(len(ch.buf)), 0)
}

// Recv dequeues a value, blocking while the channel is empty. It
// returns ok == false once the channel is closed and drained.
func (ch *Channel) Recv(c *Ctx) (v any, ok bool) {
	t := c.t
	t.advance(ch.e.cost.LockAcquire)
	for {
		if len(ch.buf) > 0 {
			v = ch.buf[0]
			ch.buf = ch.buf[1:]
			ch.Recvs++
			ch.e.traceArgs(t, EvChanRecv, ch.name, int64(len(ch.buf)), 0)
			// A parked sender can now deliver into the freed slot.
			if len(ch.sendQ) > 0 {
				w := ch.sendQ[0]
				ch.sendQ[0] = chanWaiter{} // the array outlives the woken thread
				ch.sendQ = ch.sendQ[1:]
				ch.buf = append(ch.buf, w.v)
				ch.wake(t, w.t)
			}
			t.maybeYield()
			return v, true
		}
		if ch.closed {
			t.maybeYield()
			return nil, false
		}
		ch.BlockedRecvs++
		ch.e.traceArgs(t, EvChanBlocked, ch.name, 1, 0)
		ch.recvQ = append(ch.recvQ, t)
		t.state = stateBlocked
		t.e.running--
		t.yield()
	}
}

// Close marks the channel closed and wakes every blocked receiver.
// Parked senders are a program error (as in Go) and panic at their
// next scheduling.
func (ch *Channel) Close(c *Ctx) {
	t := c.t
	t.advance(ch.e.cost.LockRelease)
	if ch.closed {
		panic("sim: close of closed channel " + ch.name)
	}
	ch.closed = true
	for _, w := range ch.recvQ {
		ch.wake(t, w)
	}
	ch.recvQ = nil
	t.maybeYield()
}

// Len reports the buffered element count.
func (ch *Channel) Len() int { return len(ch.buf) }
