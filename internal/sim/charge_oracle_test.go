package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refAdvance is Thread.advance as it was before the one-line fast
// path, kept as the differential oracle for the split: every charge is
// dilated by running/P when more threads demand a processor than there
// are processors, and the thread's processor is recomputed after every
// charge.
func refAdvance(t *Thread, cycles int64) {
	e := t.e
	if r := int64(e.running); r > int64(e.procs) {
		cycles = cycles * r / int64(e.procs)
	}
	t.clock += cycles
	cpu := t.cpu()
	if cpu != int(t.lastCPU) {
		t.lastCPU = int32(cpu)
		t.Migrations++
		t.clock += e.cost.Migration
		e.trace(t, EvMigrate, "")
	}
	if t.clock > e.maxClock {
		e.maxClock = t.clock
	}
}

// chargeOp is one step of a charge script.
type chargeOp struct {
	kind  chargeKind
	arg   int64
	child []chargeOp // the spawned thread's script
}

type chargeKind uint8

const (
	chargeDirect  chargeKind = iota // advance(arg), or refAdvance(arg)
	chargeWork                      // Work(arg)
	chargeRead                      // Read of 8 bytes at word arg, 16 if arg is odd
	chargeWrite                     // Write of 8 bytes at word arg, 16 if arg is odd
	chargeLock                      // Lock mutex arg unless one is held
	chargeUnlock                    // Unlock the held mutex
	chargeSpawn                     // spawn a thread that runs child
	chargeWait                      // wait for the spawned threads
	chargeTryLock                   // Unlock the try-mutex if held, else Lock (arg 1, if free) or TryLock it
	chargeCAS                       // CAS(0, 1) at word arg
	chargeFAA                       // FAA(1) at word arg
	chargeKinds
)

// chargeScript returns a random script of up to n steps. Direct
// charges range from one cycle to past a migration period, so threads
// rotate while the machine is oversubscribed and return home once it
// is not; locks and waits block and wake, and spawns and retirements
// move the live count across P. depth bounds the nesting of spawns.
func chargeScript(rng *rand.Rand, n, depth int) []chargeOp {
	var ops []chargeOp
	for range 1 + rng.Intn(n) {
		op := chargeOp{kind: chargeKind(rng.Intn(int(chargeKinds)))}
		switch op.kind {
		case chargeDirect:
			if rng.Intn(2) == 0 {
				op.arg = 1 + rng.Int63n(40)
			} else {
				op.arg = rng.Int63n(3 * migrationPeriod / 2)
			}
		case chargeWork:
			op.arg = 1 + rng.Int63n(20)
		case chargeRead, chargeWrite, chargeCAS, chargeFAA:
			op.arg = rng.Int63n(24)
		case chargeLock, chargeTryLock:
			op.arg = rng.Int63n(2)
		case chargeSpawn:
			if depth == 0 {
				continue
			}
			op.child = chargeScript(rng, 8, depth-1)
		}
		ops = append(ops, op)
	}
	return ops
}

// chargeRec is the charged thread's state after one step of a charge
// script, and the makespan so far.
type chargeRec struct {
	slot       int32
	clock      int64
	lastCPU    int32
	migrations int64
	maxClock   int64
}

// chargeRegimes counts the direct charges that began in each regime
// the fast path must leave to the slow one.
type chargeRegimes struct {
	// dilated: more threads demand a processor than there are.
	dilated int
	// rotated: more threads live than there are processors, but no
	// more demand one than there are, and the thread's processor is
	// not its home: only a live-count test sends it to the slow path.
	rotated int
	// homeward: no more threads live than there are processors, but
	// the thread last ran away from its home processor.
	homeward int
}

// chargeRun runs one top-level thread per script on P processors,
// untraced. When ref is set it prices every step it can without the
// charge code under test: direct charges and Work by refAdvance (Work
// charges its n operations as one advance of n·Op), and Read, Write,
// CAS, FAA and the try-mutex's lock word through refCache, whose line
// charge is refAdvance too; the try-mutex, never waited for, charges
// its Lock, TryLock and Unlock prices by refAdvance. Only the two
// blocking mutexes run the engine's code in both runs, on lock words
// no other step touches. It logs every thread's state after each step and
// counts the regimes the direct charges began in; it returns the first
// moment at which more threads demanded a processor than were live, or
// "" if there was none.
func chargeRun(procs int, scripts [][]chargeOp, ref bool) (log []chargeRec, reg chargeRegimes, over string, makespan int64) {
	e := New(Config{Processors: procs})
	locks := [2]*Mutex{e.NewMutexAt("a", 0x8000), e.NewMutexAt("b", 0x8040)}
	try := e.NewMutexAt("try", 0x8080)
	refc := newRefCache(procs, &e.cost)
	check := func(t *Thread, where string) {
		if over == "" && e.running > len(e.live) {
			over = fmt.Sprintf("%s by thread %d at %d: %d running, %d live", where, t.slot, t.clock, e.running, len(e.live))
		}
	}
	// tryStep unlocks the try-mutex if t holds it. Otherwise it locks
	// it when lock is set and the mutex is free, so Lock takes its
	// uncontended path, and tries to lock it when not.
	tryStep := func(c *Ctx, lock bool) {
		t := c.t
		lock = lock && try.owner == nil
		switch {
		case !ref && try.owner == t:
			try.Unlock(c)
		case !ref && lock:
			try.Lock(c)
		case !ref:
			try.TryLock(c)
		case try.owner == t:
			t.held--
			refAdvance(t, e.cost.LockRelease)
			refc.access(t, t.cpu(), try.addr, 8, true)
			try.owner = nil
			t.maybeYield()
		default:
			if lock {
				refAdvance(t, e.cost.LockAcquire)
			} else {
				refAdvance(t, e.cost.TryLock)
			}
			refc.access(t, t.cpu(), try.addr, 8, true)
			if try.owner == nil {
				try.owner = t
				t.held++
			}
			t.maybeYield()
		}
	}
	var run func(c *Ctx, script []chargeOp)
	run = func(c *Ctx, script []chargeOp) {
		t := c.t
		wg := e.NewWaitGroup()
		var held *Mutex
		for _, op := range script {
			check(t, "before a step")
			switch op.kind {
			case chargeDirect:
				switch live := len(e.live); {
				case e.running > e.procs:
					reg.dilated++
				case live > e.procs && t.cpu() != int(t.home):
					reg.rotated++
				case live <= e.procs && t.lastCPU != t.home:
					reg.homeward++
				}
				check(t, "at a direct charge")
				if ref {
					refAdvance(t, op.arg)
				} else {
					t.advance(op.arg)
				}
				t.maybeYield()
			case chargeWork:
				if ref {
					refAdvance(t, op.arg*e.cost.Op)
					t.maybeYield()
				} else {
					c.Work(op.arg)
				}
			case chargeRead, chargeWrite:
				addr := 0x10000 + uint64(op.arg)*24
				size := 8 + 8*(op.arg&1) // words 5, 13 and 21 straddle two lines
				if ref {
					refc.access(t, t.cpu(), addr, size, op.kind == chargeWrite)
					t.maybeYield()
				} else if op.kind == chargeWrite {
					c.Write(addr, size)
				} else {
					c.Read(addr, size)
				}
			case chargeCAS, chargeFAA:
				addr := 0x10000 + uint64(op.arg)*24
				if !ref {
					if op.kind == chargeCAS {
						c.CAS(addr, 0, 1)
					} else {
						c.FAA(addr, 1)
					}
					break
				}
				switch old := e.atomicWord(addr); {
				case op.kind == chargeFAA:
					e.setAtomicWord(addr, old+1)
				case old == 0:
					e.setAtomicWord(addr, 1)
				}
				refc.access(t, t.cpu(), addr, 8, true)
				refAdvance(t, e.cost.Atomic)
				t.maybeYield()
			case chargeTryLock:
				tryStep(c, op.arg == 1)
			case chargeLock:
				if held == nil {
					held = locks[op.arg]
					held.Lock(c)
				}
			case chargeUnlock:
				if held != nil {
					held.Unlock(c)
					held = nil
				}
			case chargeSpawn:
				wg.Add(1)
				child := op.child
				c.Go("child", func(cc *Ctx) {
					run(cc, child)
					wg.Done(cc)
				})
			case chargeWait:
				if held == nil {
					wg.Wait(c)
				}
			}
			log = append(log, chargeRec{t.slot, t.clock, t.lastCPU, t.Migrations, e.maxClock})
		}
		if held != nil {
			held.Unlock(c)
		}
		if try.owner == t {
			tryStep(c, false)
		}
		wg.Wait(c)
		check(t, "at the end")
	}
	for _, s := range scripts {
		e.Go("top", func(c *Ctx) { run(c, s) })
	}
	makespan = e.Run()
	return log, reg, over, makespan
}

// TestAdvanceMatchesReference drives random charge scripts through the
// engine's charge sites and through the reference prices of chargeRun
// (refAdvance, the charge before the one-line fast path, and refCache),
// on P = 1, 2, 8 and 1024 with just under P threads (spawns take
// the live count past P and retirements bring it back) and with more
// than P (oversubscribed from the start), and requires every thread's
// clock, processor and migrations and the makespan to agree after every
// step. It also requires that no more threads ever demand a processor
// than are live, the invariant the fast path rests on, and that the
// scripts reach every regime that must take the slow path.
func TestAdvanceMatchesReference(t *testing.T) {
	var total chargeRegimes
	for _, procs := range []int{1, 2, 8, 1024} {
		steps := 40
		if procs > 8 {
			steps = 6
		}
		for _, threads := range []int{max(1, procs-1), procs + 3} {
			for seed := range int64(4) {
				rng := rand.New(rand.NewSource(seed))
				scripts := make([][]chargeOp, threads)
				for i := range scripts {
					scripts[i] = chargeScript(rng, steps, 2)
				}
				id := fmt.Sprintf("P=%d threads=%d seed=%d", procs, threads, seed)
				got, reg, over, gotSpan := chargeRun(procs, scripts, false)
				want, _, refOver, wantSpan := chargeRun(procs, scripts, true)
				for _, o := range []string{over, refOver} {
					if o != "" {
						t.Errorf("%s: more threads demand a processor than are live, %s", id, o)
					}
				}
				if gotSpan != wantSpan {
					t.Errorf("%s: makespan %d, reference %d", id, gotSpan, wantSpan)
				}
				if len(got) != len(want) {
					t.Errorf("%s: %d steps, reference %d", id, len(got), len(want))
				}
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Errorf("%s: step %d left %+v, reference %+v", id, i, got[i], want[i])
						break
					}
				}
				total.dilated += reg.dilated
				total.rotated += reg.rotated
				total.homeward += reg.homeward
			}
		}
	}
	t.Logf("direct charges begun dilated %d, rotated with no dilation %d, homeward %d", total.dilated, total.rotated, total.homeward)
	if total.dilated == 0 || total.rotated == 0 || total.homeward == 0 {
		t.Errorf("the scripts miss a slow-path regime: %+v", total)
	}
}
