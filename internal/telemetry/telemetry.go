// Package telemetry is the pipeline span model: nested host-time spans
// for the phases every tool runs (parse → sema → vet → amplify →
// compile → simulate → export), with stable IDs, deterministic
// attributes, and exporters the rest of the observability stack builds
// on (JSONL stream, Chrome host track via internal/obsv, metrics
// snapshot counters).
//
// The split between deterministic and host-measured data is the load-
// bearing design rule: span *identity* (ID, name, nesting, sequence,
// attributes) depends only on what the program did, so it is
// byte-identical across hosts and -j values; span *timing* (StartNS,
// DurNS) is host wall-clock and therefore excluded from every artifact
// that determinism tests diff (AddTo). The package is
// stdlib-only so obsv, heapobsv, vm, bench and the commands can all
// import it without cycles.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span is one nested host-time phase. IDs are stable: the path of
// names from the root joined with '/', with a '#N' suffix from the
// second occurrence of the same path on (so two sequential "compile"
// phases under one parent are "compile" and "compile#2" in every run).
type Span struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"` // parent span ID, "" for roots
	Depth   int    `json:"depth"`
	Seq     int    `json:"seq"` // deterministic start order, 0-based
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	// Attrs carries deterministic integer attributes (byte counts,
	// makespans, cell counts — never host durations).
	Attrs map[string]int64 `json:"attrs,omitempty"`

	rec *Recorder
}

// Recorder collects spans. The zero value is not usable; NewRecorder
// is. A nil *Recorder is a valid disabled recorder: Start returns a
// nil *Span and every Span method on nil is a no-op, so call sites
// need no guards.
type Recorder struct {
	// Clock supplies host timestamps in nanoseconds; nil means
	// time.Now().UnixNano. Tests inject a fake clock to make full
	// (non-canonical) exports reproducible.
	Clock func() int64

	spans  []*Span
	stack  []*Span
	counts map[string]int
}

// NewRecorder returns an empty span recorder.
func NewRecorder() *Recorder {
	return &Recorder{counts: make(map[string]int)}
}

// Start opens a span nested under the innermost open span and returns
// it; close it with End. On a nil recorder it returns nil.
func (r *Recorder) Start(name string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{Name: name, Seq: len(r.spans), rec: r}
	path := name
	if n := len(r.stack); n > 0 {
		parent := r.stack[n-1]
		s.Parent = parent.ID
		s.Depth = parent.Depth + 1
		path = parent.ID + "/" + name
	}
	r.counts[path]++
	if n := r.counts[path]; n > 1 {
		s.ID = fmt.Sprintf("%s#%d", path, n)
	} else {
		s.ID = path
	}
	s.StartNS = r.now()
	r.spans = append(r.spans, s)
	r.stack = append(r.stack, s)
	return s
}

func (r *Recorder) now() int64 {
	if r.Clock != nil {
		return r.Clock()
	}
	return time.Now().UnixNano()
}

// Set records a deterministic integer attribute and returns the span
// for chaining. No-op on a nil span.
func (s *Span) Set(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64)
	}
	s.Attrs[key] = v
	return s
}

// End closes the span, stamping its duration and popping it (and any
// still-open children — ending a parent ends the subtree) off the
// recorder's stack. No-op on a nil span or a span already ended.
func (s *Span) End() {
	if s == nil || s.rec == nil {
		return
	}
	r := s.rec
	now := r.now()
	for i := len(r.stack) - 1; i >= 0; i-- {
		open := r.stack[i]
		r.stack = r.stack[:i]
		if open.DurNS == 0 {
			open.DurNS = now - open.StartNS
			if open.DurNS <= 0 {
				open.DurNS = 1 // a span that ran has nonzero extent
			}
		}
		open.rec = nil
		if open == s {
			return
		}
	}
	// s was not on the stack (already popped by an ancestor's End);
	// nothing to do — its duration was stamped then.
	s.rec = nil
}

// Spans returns copies of every recorded span in start order. Open
// spans appear with DurNS 0.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, len(r.spans))
	for i, s := range r.spans {
		out[i] = *s
		out[i].rec = nil
		if len(s.Attrs) > 0 {
			out[i].Attrs = make(map[string]int64, len(s.Attrs))
			for k, v := range s.Attrs {
				out[i].Attrs[k] = v
			}
		}
	}
	return out
}

// JSONL renders the spans as one JSON object per line in start order,
// keys in a fixed order and attrs sorted, including the host
// timestamps.
func (r *Recorder) JSONL() []byte {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, s := range r.spans {
		fmt.Fprintf(&b, `{"id":%q,"name":%q,"parent":%q,"depth":%d,"seq":%d,"start_ns":%d,"dur_ns":%d`,
			s.ID, s.Name, s.Parent, s.Depth, s.Seq, s.StartNS, s.DurNS)
		if len(s.Attrs) > 0 {
			b.WriteString(`,"attrs":{`)
			for i, k := range sortedKeys(s.Attrs) {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%q:%d", k, s.Attrs[k])
			}
			b.WriteByte('}')
		}
		b.WriteString("}\n")
	}
	return []byte(b.String())
}

// AddTo folds the deterministic side of every span into a metrics
// snapshot: a count per span name plus every attribute, prefixed
// "span.". Host durations are deliberately excluded — the snapshot
// must stay byte-identical across hosts.
func (r *Recorder) AddTo(m map[string]int64) {
	if r == nil {
		return
	}
	for _, s := range r.spans {
		m["span."+s.Name+".count"]++
		for k, v := range s.Attrs {
			m["span."+s.Name+"."+k] += v
		}
	}
}

// String renders the span tree with host durations, for -stats style
// diagnostic output (not for artifacts: durations are nondeterministic).
func (r *Recorder) String() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, s := range r.spans {
		fmt.Fprintf(&b, "%s%-*s %12.3fms", strings.Repeat("  ", s.Depth),
			32-2*s.Depth, s.Name, float64(s.DurNS)/1e6)
		for i, k := range sortedKeys(s.Attrs) {
			if i == 0 {
				b.WriteString("  ")
			} else {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", k, s.Attrs[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
