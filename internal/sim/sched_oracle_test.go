package sim

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scenario is an engine that keeps what every thread spawned on it
// leaves behind. The engine reuses a finished thread's record, so each
// thread reports its own completion clock and counters from inside its
// function, after a final Sync.
type scenario struct {
	*Engine
	// ends is indexed by slot; ended is false until the thread has
	// finished.
	ends []threadEnd
	// overRun is the first moment at which more threads demanded a
	// processor than were live (see checkRunning), "" while none has.
	overRun string
}

// threadEnd is a finished thread's completion clock and its lock,
// migration and atomic counters (folded as Stats.addThread does).
type threadEnd struct {
	ended    bool
	clock    int64
	counters Stats
}

func newScenario(cfg Config) *scenario { return &scenario{Engine: New(cfg)} }

// Go is Engine.Go for a thread whose end the scenario keeps.
func (s *scenario) Go(name string, fn func(*Ctx)) { s.Engine.Go(name, s.recorded(fn)) }

// spawn is c.Go for a thread whose end the scenario keeps.
func (s *scenario) spawn(c *Ctx, name string, fn func(*Ctx)) { c.Go(name, s.recorded(fn)) }

// recorded wraps fn so the thread records its end once fn returns. The
// Sync is the one the engine would make when the function returns, so
// the wrapper changes no simulated result.
func (s *scenario) recorded(fn func(*Ctx)) func(*Ctx) {
	return func(c *Ctx) {
		fn(c)
		c.Sync()
		t := c.t
		if n := int(t.slot) + 1; n > len(s.ends) {
			s.ends = append(s.ends, make([]threadEnd, n-len(s.ends))...)
		}
		end := threadEnd{ended: true, clock: t.clock}
		end.counters.addThread(t)
		s.ends[t.slot] = end
	}
}

// checkRunning records the first moment at which more threads demand a
// processor than are live. They must never: the threads ready or
// running are a subset of the unfinished ones, and advance's fast path
// rests on it (with at most P live threads no charge is dilated).
func (s *scenario) checkRunning(where string, slot int32, clock int64) {
	if s.overRun == "" && s.running > len(s.live) {
		s.overRun = fmt.Sprintf("%s of thread %d at %d: %d threads running, %d live", where, slot, clock, s.running, len(s.live))
	}
}

// runningChecker is a Tracer that checks the scenario's running count
// at every event, and passes the event on.
type runningChecker struct {
	s    *scenario
	next Tracer
}

func (r *runningChecker) Event(ev Event) {
	r.s.checkRunning(ev.Kind.String(), int32(ev.Thread), ev.Time)
	r.next.Event(ev)
}

// bySlot returns the end of every thread of the scenario in slot
// order. It panics when a thread has not finished.
func (s *scenario) bySlot() []threadEnd {
	if len(s.ends) != int(s.slots) {
		panic(fmt.Sprintf("sim: scenario kept %d of %d thread ends", len(s.ends), s.slots))
	}
	for i, end := range s.ends {
		if !end.ended {
			panic(fmt.Sprintf("sim: thread %d of the scenario did not finish", i))
		}
	}
	return s.ends
}

// runLinear is the reference scheduler the ready heap replaced: Run
// with every pick made by a linear scan over the live threads (see
// pickLinear) instead of by the heap root. The scheduling loop is the
// engine's own, so the scan makes every pick, those of the loops that
// stopping threads run as well as Run's.
func runLinear(e *Engine) int64 {
	e.pick = pickLinear
	return e.Run()
}

// pickLinear is the scheduling loop's pick by linear scan (pickMin).
// The heap still holds the ready threads, because yieldCheck and wake
// maintain it, so the chosen thread is removed from it by slot, and a
// preempted thread's handoff choice is put back and re-decided by the
// scan.
func pickLinear(e *Engine) (*Thread, int64) {
	if h := e.handoff; h != nil {
		e.handoff = nil
		e.ready.push(h)
	}
	t, lease := pickMin(e)
	if t != nil {
		e.ready.remove(t)
	}
	return t, lease
}

// pickMin selects the ready thread with the smallest clock (ties broken
// by slot) and the clock of the runner-up, which bounds the winner's
// lease. The live set is in no particular order, so the tie-break is
// explicit.
func pickMin(e *Engine) (*Thread, int64) {
	var best *Thread
	second := int64(math.MaxInt64)
	for _, t := range e.live {
		if t.state != stateReady {
			continue
		}
		if best == nil || t.clock < best.clock || (t.clock == best.clock && t.slot < best.slot) {
			if best != nil {
				second = best.clock
			}
			best = t
		} else if t.clock < second {
			second = t.clock
		}
	}
	return best, second
}

// scanMakespan recomputes the makespan by scanning every thread of the
// scenario, the finished ones' completion clocks and the live ones'
// clocks: the reference for the running max Makespan reads.
func scanMakespan(s *scenario) int64 {
	var m int64
	for _, end := range s.ends {
		m = max(m, end.clock)
	}
	for _, t := range s.live {
		m = max(m, t.clock)
	}
	return m
}

// remove takes t out of the heap wherever it sits.
func (h *readyHeap) remove(t *Thread) {
	i, last := int(t.heapIdx), len(h.ts)-1
	if i < 0 {
		panic("sim: thread " + t.name + " is not queued")
	}
	h.swap(i, last)
	h.ts[last] = nil
	h.ts = h.ts[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	t.heapIdx = -1
}

// schedRun is what one run of a scenario lets a test observe.
type schedRun struct {
	makespan int64
	stats    Stats
	ends     []threadEnd
	events   []Event
	// overRun is the scenario's (see scenario.checkRunning).
	overRun string
}

// observeRun runs a scenario traced, checking the running count at
// every event.
func observeRun(build func(Config) *scenario, procs int, run func(*Engine) int64) schedRun {
	rec := Recorder{Max: 1 << 30, Mask: AllEvents}
	chk := &runningChecker{next: &rec}
	s := build(Config{Processors: procs, Tracer: chk})
	chk.s = s
	r := schedRun{makespan: run(s.Engine), stats: s.Stats(), events: rec.Events}
	r.ends = s.bySlot()
	r.overRun = s.overRun
	return r
}

// clocks lists the scenario's thread completion clocks in slot order.
func clocks(s *scenario) []int64 {
	var cs []int64
	for _, end := range s.bySlot() {
		cs = append(cs, end.clock)
	}
	return cs
}

// checkMatchesLinear runs a scenario on the engine and on runLinear and
// fails on any difference in makespan, statistics, per-thread
// completion clock and counters or event stream, preemptions included.
// It returns the engine's run.
func checkMatchesLinear(t *testing.T, id string, procs int, build func(Config) *scenario) schedRun {
	t.Helper()
	heap := observeRun(build, procs, (*Engine).Run)
	diffRuns(t, id, "heap", "linear scan", heap, observeRun(build, procs, runLinear))
	return heap
}

// diffRuns fails on any difference between two runs of one scenario,
// and when either run had more threads running than live.
func diffRuns(t *testing.T, id, gotName, wantName string, got, want schedRun) {
	t.Helper()
	for _, r := range []struct{ name, over string }{{gotName, got.overRun}, {wantName, want.overRun}} {
		if r.over != "" {
			t.Errorf("%s (%s): %s", id, r.name, r.over)
		}
	}
	if got.makespan != want.makespan {
		t.Errorf("%s: makespan %d (%s) != %d (%s)", id, got.makespan, gotName, want.makespan, wantName)
	}
	if got.stats != want.stats {
		t.Errorf("%s: stats diverge\n%s: %+v\n%s: %+v", id, gotName, got.stats, wantName, want.stats)
	}
	if len(got.ends) != len(want.ends) {
		t.Errorf("%s: %d threads (%s) != %d (%s)", id, len(got.ends), gotName, len(want.ends), wantName)
	} else {
		for i, g := range got.ends {
			if w := want.ends[i]; g.clock != w.clock {
				t.Errorf("%s: thread %d completion %d (%s) != %d (%s)", id, i, g.clock, gotName, w.clock, wantName)
			} else if g.counters != w.counters {
				t.Errorf("%s: thread %d counters diverge\n%s: %+v\n%s: %+v", id, i, gotName, g.counters, wantName, w.counters)
			}
		}
	}
	for i := range min(len(got.events), len(want.events)) {
		if got.events[i] != want.events[i] {
			t.Errorf("%s: event %d is %+v (%s), %+v (%s)", id, i, got.events[i], gotName, want.events[i], wantName)
			break
		}
	}
	if len(got.events) != len(want.events) {
		t.Errorf("%s: %d events (%s) != %d (%s)", id, len(got.events), gotName, len(want.events), wantName)
	}
}

// streamHash is the SHA-256 of a run's event stream without its
// preemptions, one "%+v" line per event.
func streamHash(events []Event) string {
	h := sha256.New()
	for _, ev := range events {
		if ev.Kind != EvPreempt {
			fmt.Fprintf(h, "%+v\n", ev)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestHeapSchedulerMatchesLinearScan pins the heap scheduler to the
// linear-scan reference on the torture scenario and on lockstep
// threads with tied clocks that preempt on every step, on 8 processors
// and oversubscribed on 4. The reference shares yieldCheck and wake
// with the engine, so each scenario's makespan and event stream are
// also pinned to the values the pre-heap scheduler produced, which
// yielded on every lease expiry; its preemptions differ, so they are
// left out of the hash.
func TestHeapSchedulerMatchesLinearScan(t *testing.T) {
	lockstep8 := func(cfg Config) *scenario { return lockstep(cfg, 8, 200) }
	for _, pin := range []struct {
		name     string
		build    func(Config) *scenario
		procs    int
		makespan int64
		events   int
		sha      string
	}{
		{"torture", torture, 4, 137630, 495, "7d9fce0ac613d17769c5099d3ec6bd1c42270bdf7d7dec1f87cac28c8949c614"},
		{"torture", torture, 8, 106380, 471, "67e598cb5bc21b8708d0a823e90581dbde8d4125f75682281b02b6b1726560ce"},
		{"lockstep", lockstep8, 4, 40374, 3196, "e4b31d19ea89e6ad1869d75f2cf74d438b931d3d3daf819e6f09fa21f2f05464"},
		{"lockstep", lockstep8, 8, 20200, 3180, "01ac7c15fb0bd12ad8fe57b8f67cb91f437a4554a04da0153e37f3bdcb5b93be"},
	} {
		id := fmt.Sprintf("%s P=%d", pin.name, pin.procs)
		r := checkMatchesLinear(t, id, pin.procs, pin.build)
		var n int
		for _, ev := range r.events {
			if ev.Kind != EvPreempt {
				n++
			}
		}
		if got := streamHash(r.events); r.makespan != pin.makespan || n != pin.events || got != pin.sha {
			t.Errorf("%s: makespan %d, %d events, stream %s; pinned %d, %d, %s",
				id, r.makespan, n, got, pin.makespan, pin.events, pin.sha)
		}
	}
}

// scripted builds an engine whose threads run scripts decoded from
// data. The first byte sets the number of top-level threads (1-6), and
// the rest is split evenly among them. Each script byte is one
// operation: the low three bits pick it and the high five give its
// argument. Operation 0 with an odd argument is private work: Compute
// when runAhead is set, the same number of Work(1) calls otherwise; a
// script calls Sync before every other operation. A read or write
// with an odd argument is a shared access that then runs ahead
// (ReadAhead, WriteAhead) when runAhead is set. A spawn's child runs
// the next 1-8 bytes of its parent's script; with argument bit 3 set
// it signals its parent's WaitGroup before its script instead of
// after, so it stays live past the delay-0 wake of a waiting parent.
// A thread holds at most one of the two mutexes, never waits while
// holding it, and only waits for threads it spawned, so no script can
// deadlock. Spawns nest two deep and stop at 24 children.
func scripted(cfg Config, data []byte, runAhead bool) *scenario {
	s := newScenario(cfg)
	if len(data) == 0 {
		return s
	}
	locks := [2]*Mutex{s.NewMutexAt("a", 0x8000), s.NewMutexAt("b", 0x8040)}
	spawned := 0
	var run func(c *Ctx, script []byte, depth int)
	run = func(c *Ctx, script []byte, depth int) {
		wg := c.Engine().NewWaitGroup()
		var held *Mutex
		for i, b := range script {
			s.checkRunning("before a step", c.t.slot, c.t.clock)
			arg := int64(b >> 3)
			addr := 0x10000 + uint64(arg)*24 // three 8-byte words per line
			if b&7 == 0 && arg&1 == 1 {
				if runAhead {
					c.Compute(arg)
				} else {
					for range arg {
						c.Work(1)
					}
				}
				continue
			}
			c.Sync()
			switch b & 7 {
			case 0:
				c.Advance(1 + arg*arg*61)
			case 1:
				if held == nil {
					held = locks[arg&1]
					held.Lock(c)
				}
			case 2:
				if held != nil {
					held.Unlock(c)
					held = nil
				}
			case 3:
				if runAhead && arg&1 == 1 {
					c.ReadAhead(addr, 8)
				} else {
					c.Read(addr, 8)
				}
			case 4:
				if runAhead && arg&1 == 1 {
					c.WriteAhead(addr, 8)
				} else {
					c.Write(addr, 8)
				}
			case 5:
				if depth < 2 && spawned < 24 {
					spawned++
					child := script[i+1 : min(len(script), i+2+int(arg&7))]
					early := arg&8 != 0
					wg.Add(1)
					s.spawn(c, "child", func(cc *Ctx) {
						if early {
							wg.Done(cc)
						}
						run(cc, child, depth+1)
						if !early {
							wg.Done(cc)
						}
					})
				}
			case 6:
				if held == nil {
					wg.Wait(c)
				}
			case 7:
				if held == nil && locks[arg&1].TryLock(c) {
					held = locks[arg&1]
				}
			}
		}
		c.Sync()
		if held != nil {
			held.Unlock(c)
		}
		wg.Wait(c)
	}
	n := 1 + int(data[0])%6
	rest := data[1:]
	for k := 0; k < n; k++ {
		script := rest[k*len(rest)/n : (k+1)*len(rest)/n]
		s.Go(fmt.Sprintf("t%d", k), func(c *Ctx) { run(c, script, 0) })
	}
	return s
}

// checkRunAhead runs a script untraced twice: on the engine with
// run-ahead, and on the linear-scan reference with every private unit
// charged as Work(1). It fails on any difference in makespan,
// statistics or per-thread completion clock and counters.
func checkRunAhead(t *testing.T, id string, procs int, data []byte) {
	t.Helper()
	untraced := func(runAhead bool, run func(*Engine) int64) schedRun {
		s := scripted(Config{Processors: procs}, data, runAhead)
		r := schedRun{makespan: run(s.Engine), stats: s.Stats()}
		r.ends = s.bySlot()
		r.overRun = s.overRun
		return r
	}
	diffRuns(t, id, "run-ahead", "per unit", untraced(true, (*Engine).Run), untraced(false, runLinear))
}

// checkSwitches runs a script untraced on the engine, with private
// work run ahead or charged per unit, and counts the picks of the
// scheduling loop. It fails when the run switched coroutines more than
// twice per pick: more than the central loop, which resumed a worker
// for every pick and was switched back to once per resume.
func checkSwitches(t *testing.T, id string, procs int, data []byte) {
	t.Helper()
	for _, runAhead := range []bool{true, false} {
		s := scripted(Config{Processors: procs}, data, runAhead)
		var picks int64
		s.pick = func(e *Engine) (*Thread, int64) {
			th, lease := e.pickHeap()
			if th != nil {
				picks++
			}
			return th, lease
		}
		s.Run()
		if s.switches > 2*picks {
			t.Errorf("%s run-ahead=%v: %d coroutine switches for %d picks", id, runAhead, s.switches, picks)
		}
	}
}

// Script bytes for hand-built scenarios (see scripted).
const (
	opAdvance2  = 2<<3 | 0  // Advance(245)
	opAdvance30 = 30<<3 | 0 // Advance(54901)
	opCompute31 = 31<<3 | 0 // 31 private units
	opAdvance4  = 4<<3 | 0  // Advance(977)
	opCompute11 = 11<<3 | 0 // 11 private units
	opLockA     = 0<<3 | 1
	opSpawn1    = 0<<3 | 5 // child runs the next byte
	opNoop      = 6        // Wait with nothing spawned
)

// crossingSeeds are scripts in which a spawn takes the live count past
// P while other threads have open run-ahead segments, late enough
// (past the first migration period) that the units a rollback turns
// into debt cost a migration, and a lock race decides who pays for
// it. The first byte of each is the thread count minus one.
var crossingSeeds = []struct {
	procs uint8
	data  []byte
}{
	// P=3: t1 runs ahead, t0 spawns, t2 takes lock a during the window
	// in which t1's debt is charged.
	{3, []byte{2,
		opAdvance30, opAdvance30, opAdvance30, opAdvance30, 0, opSpawn1, opNoop, opNoop,
		opAdvance30, opAdvance30, opAdvance30, opAdvance30, opCompute31, opLockA, opNoop, opNoop,
		opAdvance30, opAdvance30, opAdvance30, opAdvance30, opAdvance2, opLockA, opAdvance30, opNoop,
	}},
	// P=4: t1 and t2 both have open segments at t0's spawn.
	{4, []byte{3,
		opAdvance30, opAdvance30, opAdvance30, opAdvance30, 0, opSpawn1, opNoop, opNoop,
		opAdvance30, opAdvance30, opAdvance30, opAdvance30, opCompute31, opLockA, opNoop, opNoop,
		opAdvance30, opAdvance30, opAdvance30, opAdvance30, opCompute31, opLockA, opNoop, opNoop,
		opAdvance30, opAdvance30, opAdvance30, opAdvance30, opAdvance2, opLockA, opAdvance30, opNoop,
	}},
}

// wakeGapSeed is a script in which a child's delay-0 wake of its
// waiting parent is followed, at the same clock, by the parent's spawn
// that takes the live count past P (DESIGN.md §12). On P=3, t0 reaches
// 549,998 cycles and spawns M (slot 1), which spawns A (slot 2) and
// waits for it. A signals M at 599,998 before its script, skips the
// spawn (it is two deep) and computes; M then spawns B, the fourth
// live thread. Per unit, A's first unit runs before M's spawn, on its
// home processor 2; every later one runs after it, oversubscribed, in
// the migration epoch from 600,000 that maps A to processor 2 too. A
// segment opened for that first unit would be rolled back whole, and
// its first debt unit would end at 599,999, in the epoch that maps A
// to processor 1: two migrations the reference does not make.
var wakeGapSeed = func() []byte {
	data := []byte{0}
	for range 10 {
		data = append(data, opAdvance30)
	}
	return append(data, opAdvance4, opCompute11,
		4<<3|5,      // spawn M, which runs the next five bytes
		opNoop,      // t0 waits for M; M has nothing to wait for
		(8|2)<<3|5,  // M spawns A, which signals first and runs the next three bytes
		opNoop,      // M waits for A; A has nothing to wait for
		opSpawn1,    // M spawns B; A is too deep to spawn
		opCompute31) // A's first private units
}()

// FuzzSchedule checks the heap scheduler against the linear-scan
// reference on random thread scripts (see scripted) on 1-8 processors:
// traced, where private work is charged per unit and the event streams
// must match, and untraced, where the engine runs ahead through it.
// Both share the stacked scheduling loop, which must also never switch
// coroutines more often than the central loop would (checkSwitches).
func FuzzSchedule(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i, n := range []int{8, 64, 256} {
		seed := make([]byte, n)
		rng.Read(seed)
		f.Add(uint8(1+3*i), seed) // 2, 5 and 8 processors
	}
	for _, s := range crossingSeeds {
		f.Add(s.procs-1, s.data)
	}
	f.Add(uint8(2), wakeGapSeed)
	f.Fuzz(func(t *testing.T, procs uint8, data []byte) {
		p := 1 + int(procs)%8
		id := fmt.Sprintf("P=%d", p)
		checkMatchesLinear(t, id, p, func(cfg Config) *scenario { return scripted(cfg, data, true) })
		checkRunAhead(t, id, p, data)
		checkSwitches(t, id, p, data)
	})
}
