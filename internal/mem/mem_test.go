package mem

import (
	"testing"
	"testing/quick"

	"amplify/internal/sim"
)

func TestSbrkBasics(t *testing.T) {
	sp := NewSpace()
	e := sim.New(sim.Config{Processors: 1})
	e.Go("w", func(c *sim.Ctx) {
		a := sp.Sbrk(c, 100)
		b := sp.Sbrk(c, 100)
		if a == Nil || b == Nil {
			t.Error("Sbrk returned nil")
		}
		if b < a+PageSize {
			t.Errorf("regions overlap: %#x then %#x", uint64(a), uint64(b))
		}
	})
	e.Run()
	if sp.Footprint() != 2*PageSize {
		t.Errorf("Footprint = %d, want %d", sp.Footprint(), 2*PageSize)
	}
}

func TestSbrkNilCtx(t *testing.T) {
	sp := NewSpace()
	if r := sp.Sbrk(nil, 1); r == Nil {
		t.Fatal("Sbrk(nil ctx) returned nil")
	}
}

func TestSbrkPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSpace().Sbrk(nil, 0)
}

func TestSbrkRegionsDisjointProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		sp := NewSpace()
		var prevEnd uint64
		for _, s := range sizes {
			n := int64(s%5000) + 1
			r := sp.Sbrk(nil, n)
			if uint64(r) < prevEnd {
				return false
			}
			prevEnd = uint64(r) + uint64((n+PageSize-1)/PageSize*PageSize)
		}
		return sp.Footprint() == int64(prevEnd)-1<<16 || len(sizes) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
