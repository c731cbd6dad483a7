package mem

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap drives a Table and a Go map through the same
// random puts and lookups, over refs packed closely enough to collide
// and through several growths, and requires the same answers and the
// same contents throughout.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var table Table[[2]Ref]
	want := map[Ref][2]Ref{}
	ref := func() Ref { return Ref(0x1000 + 28*rng.Intn(4096)) }
	if _, ok := table.Get(ref()); ok || len(table.slots) != 0 {
		t.Fatal("the zero Table is not empty")
	}
	for i := range 200_000 {
		r := ref()
		if rng.Intn(2) == 0 {
			v := [2]Ref{ref(), ref()}
			table.Put(r, v)
			want[r] = v
			continue
		}
		got, ok := table.Get(r)
		if w, wok := want[r]; got != w || ok != wok {
			t.Fatalf("op %d: Get(%#x) = %v, %v; want %v, %v", i, uint64(r), got, ok, w, wok)
		}
	}
	if table.Len() != len(want) {
		t.Fatalf("table holds %d refs, want %d", table.Len(), len(want))
	}
	for r, w := range want {
		if got, ok := table.Get(r); got != w || !ok {
			t.Fatalf("Get(%#x) = %v, %v after the run; want %v", uint64(r), got, ok, w)
		}
	}
	if len(table.slots) < 4096 {
		t.Fatalf("the table holds %d slots; it never grew past the refs it was given", len(table.slots))
	}
}
