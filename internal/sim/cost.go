package sim

// CostModel assigns virtual-cycle prices to the primitive events of the
// simulated machine. The defaults are loosely calibrated to a late-1990s
// SMP (the paper's Sun Enterprise 4000): an L2 miss costs tens of cycles,
// an uncontended lock costs an atomic round-trip, and waking a blocked
// thread costs a scheduler hop. Absolute values only set the scale; the
// reproduced figures are ratios (speedup, scaleup), which depend on the
// relative prices.
type CostModel struct {
	// Op is the price of one generic ALU/branch operation.
	Op int64
	// CacheHit is the price of a load/store that hits in the local cache.
	CacheHit int64
	// CacheMiss is the price of a load/store that misses (cold line or a
	// line invalidated by another processor's write).
	CacheMiss int64
	// CacheRFO is the extra price of a store that must take ownership of
	// a line last written by another processor (read-for-ownership).
	CacheRFO int64
	// LockAcquire and LockRelease are the uncontended prices of mutex
	// operations (atomic instruction plus fence).
	LockAcquire int64
	// LockRelease is the price of releasing a mutex.
	LockRelease int64
	// LockHandoff is the additional latency before a blocked thread that
	// is handed a mutex resumes running (wakeup cost).
	LockHandoff int64
	// TryLock is the price of a trylock attempt, successful or not.
	TryLock int64
	// Atomic is the price of one atomic read-modify-write instruction
	// (CAS, fetch-and-add) or fenced store, on top of the cache traffic
	// the operation's line access charges. Failed CAS attempts pay it
	// too: the bus transaction happens whether or not the compare wins.
	Atomic int64
	// Spawn is the price, charged to the parent, of creating a thread.
	Spawn int64
	// Sbrk is the price of extending the simulated address space by one
	// page (a system call on the real machine).
	Sbrk int64
	// Migration is the price a thread pays when it resumes on a different
	// processor than it last ran on (pipeline/TLB refill; cache affinity
	// loss is modelled separately by the cache model).
	Migration int64
}

// DefaultCost returns the prices every engine charges.
func DefaultCost() CostModel {
	return CostModel{
		Op:          1,
		CacheHit:    2,
		CacheMiss:   60,
		CacheRFO:    40,
		LockAcquire: 16,
		LockRelease: 10,
		LockHandoff: 120,
		TryLock:     12,
		Atomic:      14,
		Spawn:       25_000,
		Sbrk:        800,
		Migration:   400,
	}
}
