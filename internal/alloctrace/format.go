package alloctrace

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Magic opens every binary trace; the trailing digit is the format
// version. Bump it on incompatible layout changes so old tooling fails
// loudly instead of misparsing.
const Magic = "AMPTRC1\n"

// Encode serializes the trace in the compact binary form: the magic,
// length-prefixed name/site/thread tables, then one varint-packed
// record per event. Timestamps are zigzag deltas against the previous
// event (capture order interleaves per-thread clocks, so deltas can be
// negative); free back-references are stored as the always-positive
// distance to the alloc event. The bytes are a pure function of the
// trace: byte-identical captures encode byte-identically.
func (tr *Trace) Encode() []byte {
	var b []byte
	b = append(b, Magic...)
	b = appendString(b, tr.Name)
	b = binary.AppendUvarint(b, uint64(len(tr.Sites)))
	for _, s := range tr.Sites {
		b = appendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(tr.Threads)))
	for _, t := range tr.Threads {
		b = appendString(b, t)
	}
	b = binary.AppendUvarint(b, uint64(len(tr.Events)))
	var prevNow int64
	for i := range tr.Events {
		ev := &tr.Events[i]
		b = append(b, byte(ev.Op))
		b = binary.AppendUvarint(b, uint64(ev.Thread))
		b = binary.AppendVarint(b, ev.Now-prevNow)
		prevNow = ev.Now
		switch ev.Op {
		case OpAlloc:
			b = binary.AppendUvarint(b, uint64(ev.Site))
			b = binary.AppendUvarint(b, uint64(ev.Req))
			b = binary.AppendUvarint(b, uint64(ev.Granted))
		case OpFree:
			b = binary.AppendUvarint(b, uint64(int64(i)-ev.AllocSeq))
		}
	}
	return b
}

// Decode parses a binary trace and validates it.
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("alloctrace: bad magic (want %q)", Magic)
	}
	d := decoder{buf: data[len(Magic):]}
	tr := &Trace{}
	tr.Name = d.str("name")
	nsites := d.uvarint("site count")
	for i := uint64(0); i < nsites && d.err == nil; i++ {
		tr.Sites = append(tr.Sites, d.str("site"))
	}
	nthreads := d.uvarint("thread count")
	for i := uint64(0); i < nthreads && d.err == nil; i++ {
		tr.Threads = append(tr.Threads, d.str("thread"))
	}
	nevents := d.uvarint("event count")
	// Every event takes at least four bytes, which bounds the up-front
	// allocation however large the declared count.
	tr.Events = make([]Event, 0, min(nevents, uint64(len(d.buf)/4)))
	var prevNow int64
	for i := uint64(0); i < nevents && d.err == nil; i++ {
		var ev Event
		ev.Op = Op(d.byte("op"))
		ev.Thread = d.index("thread index")
		prevNow += d.varint("timestamp delta")
		ev.Now = prevNow
		switch ev.Op {
		case OpAlloc:
			ev.Site = d.index("site index")
			ev.Req = int64(d.uvarint("req bytes"))
			ev.Granted = int64(d.uvarint("granted bytes"))
		case OpFree:
			ev.AllocSeq = int64(i) - int64(d.uvarint("free back-reference"))
		default:
			if d.err == nil {
				return nil, fmt.Errorf("alloctrace: event %d: unknown op %d", i, ev.Op)
			}
		}
		tr.Events = append(tr.Events, ev)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("alloctrace: %d trailing bytes after last event", len(d.buf))
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// decoder consumes varint fields, remembering the first error.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("alloctrace: truncated or corrupt %s field", what)
	}
}

func (d *decoder) byte(what string) byte {
	if d.err != nil || len(d.buf) == 0 {
		d.fail(what)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// index reads a thread or site table index, which must fit an int32;
// truncating a larger value would alias it to a valid index.
func (d *decoder) index(what string) int32 {
	v := d.uvarint(what)
	if v > math.MaxInt32 {
		d.err = fmt.Errorf("alloctrace: %s %d out of range", what, v)
		return 0
	}
	return int32(v)
}

func (d *decoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) str(what string) string {
	n := d.uvarint(what + " length")
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail(what)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// JSONL renders the trace's human-greppable mirror: a header object
// (version, name, site and thread tables) followed by one compact JSON
// object per event. Like the binary form, the bytes are a pure
// function of the trace.
func (tr *Trace) JSONL() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"format":%q,"name":%q,"sites":[`, strings.TrimSuffix(Magic, "\n"), tr.Name)
	for i, s := range tr.Sites {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q", s)
	}
	b.WriteString(`],"threads":[`)
	for i, t := range tr.Threads {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q", t)
	}
	fmt.Fprintf(&b, `],"events":%d}`+"\n", len(tr.Events))
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Op == OpAlloc {
			fmt.Fprintf(&b, `{"op":"alloc","t":%d,"now":%d,"site":%d,"req":%d,"granted":%d}`+"\n",
				ev.Thread, ev.Now, ev.Site, ev.Req, ev.Granted)
		} else {
			fmt.Fprintf(&b, `{"op":"free","t":%d,"now":%d,"alloc":%d}`+"\n",
				ev.Thread, ev.Now, ev.AllocSeq)
		}
	}
	return []byte(b.String())
}
