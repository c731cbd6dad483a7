package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestRFOChargedOnForeignWrite(t *testing.T) {
	e := New(Config{Processors: 2})
	wg := e.NewWaitGroup()
	wg.Add(1)
	e.Go("first", func(c *Ctx) {
		c.Write(0x1000, 8)
		wg.Done(c)
	})
	e.Go("second", func(c *Ctx) {
		wg.Wait(c)
		c.Write(0x1000, 8) // other CPU owns the line: RFO
	})
	e.Run()
	if e.Cache().RFOs == 0 {
		t.Fatal("no RFO charged for cross-CPU write")
	}
}

func TestSameCPUWritesNoRFO(t *testing.T) {
	e := New(Config{Processors: 2})
	e.Go("w", func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.Write(0x1000, 8)
		}
	})
	e.Run()
	if e.Cache().RFOs != 0 {
		t.Fatalf("RFOs = %d for single-writer line", e.Cache().RFOs)
	}
	if e.Cache().Misses != 1 {
		t.Fatalf("misses = %d, want 1 (cold only)", e.Cache().Misses)
	}
}

func TestInvalidationAfterRemoteWrite(t *testing.T) {
	e := New(Config{Processors: 2})
	wg1 := e.NewWaitGroup()
	wg2 := e.NewWaitGroup()
	wg1.Add(1)
	wg2.Add(1)
	var missesBefore, missesAfter int64
	e.Go("reader", func(c *Ctx) {
		c.Read(0x2000, 8) // cold miss, now cached
		c.Read(0x2000, 8) // hit
		wg1.Done(c)
		wg2.Wait(c)
		missesBefore = e.Stats().CacheMisses
		c.Read(0x2000, 8) // invalidated by the writer: miss again
		missesAfter = e.Stats().CacheMisses
	})
	e.Go("writer", func(c *Ctx) {
		wg1.Wait(c)
		c.Write(0x2000, 8)
		wg2.Done(c)
	})
	e.Run()
	if missesAfter != missesBefore+1 {
		t.Fatalf("misses before=%d after=%d; remote write did not invalidate", missesBefore, missesAfter)
	}
}

func TestAccessSpanningLines(t *testing.T) {
	e := New(Config{Processors: 1})
	e.Go("w", func(c *Ctx) {
		c.Read(0x1030, 64) // spans two 64-byte lines (0x1000 and 0x1040)
	})
	e.Run()
	if e.Cache().Misses != 2 {
		t.Fatalf("misses = %d, want 2 for a spanning access", e.Cache().Misses)
	}
}

// cacheBenchAddrs returns n 8-byte-aligned addresses: either on 64
// dense lines that every processor shares or scattered over 1 GiB.
func cacheBenchAddrs(n int, layout string) []uint64 {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, n)
	for i := range addrs {
		if layout == "dense" {
			addrs[i] = 0x10000 + uint64(rng.Intn(64))*64
		} else {
			addrs[i] = uint64(rng.Int63n(1<<30)) &^ 7
		}
	}
	return addrs
}

// BenchmarkCacheAccess measures one 8-byte access through the cache
// model (a quarter of them stores), with processors taking turns on
// either 64 dense lines that every processor shares or 64k lines
// scattered over 1 GiB. The processor sequence is precomputed, so no
// division is timed with the access.
func BenchmarkCacheAccess(b *testing.B) {
	for _, p := range []int{8, 1024} {
		for _, layout := range []string{"dense", "scattered"} {
			b.Run(fmt.Sprintf("P=%d/%s", p, layout), func(b *testing.B) {
				n := 1 << 16
				addrs := cacheBenchAddrs(n, layout)
				cpus := make([]int, n)
				for i := range cpus {
					cpus[i] = (i * 7) % p
				}
				e := New(Config{Processors: p})
				t := e.newThread("bench", nil)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i & (n - 1)
					e.cache.access(t, cpus[j], addrs[j], 8, j&3 == 0)
				}
			})
		}
	}
}

// BenchmarkCtxAccess is BenchmarkCacheAccess through Ctx.Read and
// Ctx.Write on a running engine, one thread on 8 processors, so the
// processor lookup, the charge and the lease check are timed with the
// cache model.
func BenchmarkCtxAccess(b *testing.B) {
	for _, layout := range []string{"dense", "scattered"} {
		b.Run(layout, func(b *testing.B) {
			n := 1 << 16
			addrs := cacheBenchAddrs(n, layout)
			e := New(Config{Processors: 8})
			e.Go("bench", func(c *Ctx) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i & (n - 1)
					if j&3 == 0 {
						c.Write(addrs[j], 8)
					} else {
						c.Read(addrs[j], 8)
					}
				}
				b.StopTimer()
			})
			e.Run()
		})
	}
}
