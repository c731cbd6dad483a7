package mem

// Table maps Refs to values of type V. It is a flat open-addressed
// table of (ref, value) slots (Fibonacci hashing, linear probing): a
// lookup is one multiply and a probe or two, and for a pointer-free V
// the garbage collector never scans it. There is no deletion; a caller
// that must forget a ref puts the value a lookup of it should read.
// The zero Table is empty and allocates nothing until the first Put.
type Table[V any] struct {
	slots []tableSlot[V]
	n     int
	shift uint // 64 - log2(len(slots))
}

type tableSlot[V any] struct {
	ref Ref // Nil marks an empty slot
	val V
}

const tableMinSize = 64 // slots, allocated on the first Put

func (t *Table[V]) home(ref Ref) uint64 {
	return uint64(ref) * 0x9E3779B97F4A7C15 >> t.shift
}

// Len returns the number of refs the table holds.
func (t *Table[V]) Len() int { return t.n }

// Get returns ref's value and whether ref was ever put; a ref never
// put reads as V's zero value.
func (t *Table[V]) Get(ref Ref) (v V, ok bool) {
	if t.n == 0 {
		return v, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(ref); ; i = (i + 1) & mask {
		switch t.slots[i].ref {
		case ref:
			return t.slots[i].val, true
		case Nil:
			return v, false
		}
	}
}

// Put sets ref's value, replacing an earlier one. ref must not be Nil.
func (t *Table[V]) Put(ref Ref, v V) {
	if len(t.slots) == 0 {
		t.resize(tableMinSize)
	} else if (t.n+1)*4 > len(t.slots)*3 {
		t.resize(2 * len(t.slots))
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(ref)
	for t.slots[i].ref != ref && t.slots[i].ref != Nil {
		i = (i + 1) & mask
	}
	if t.slots[i].ref == Nil {
		t.slots[i].ref = ref
		t.n++
	}
	t.slots[i].val = v
}

func (t *Table[V]) resize(size int) {
	old := t.slots
	t.slots = make([]tableSlot[V], size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	mask := uint64(size - 1)
	for _, s := range old {
		if s.ref == Nil {
			continue
		}
		i := t.home(s.ref)
		for t.slots[i].ref != Nil {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
