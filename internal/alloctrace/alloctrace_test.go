package alloctrace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// sample builds a small hand-written trace exercising every feature:
// two threads, attributed and unknown sites, a cross-thread free, and
// a leak.
func sample() *Trace {
	return &Trace{
		Name:    "sample",
		Sites:   []string{"", "make_node@12(node)"},
		Threads: []string{"t0", "t1"},
		Events: []Event{
			{Op: OpAlloc, Thread: 0, Now: 100, Site: 1, Req: 24, Granted: 32},
			{Op: OpAlloc, Thread: 1, Now: 40, Site: 0, Req: 100, Granted: 112},
			{Op: OpFree, Thread: 1, Now: 90, AllocSeq: 0}, // cross-thread
			{Op: OpFree, Thread: 1, Now: 95, AllocSeq: 1},
			{Op: OpAlloc, Thread: 0, Now: 160, Site: 1, Req: 8, Granted: 16}, // leaked
		},
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatalf("sample trace invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"missing unknown site", func(tr *Trace) { tr.Sites = []string{"x"} }, "Sites[0]"},
		{"thread out of range", func(tr *Trace) { tr.Events[0].Thread = 7 }, "thread 7 out of range"},
		{"site out of range", func(tr *Trace) { tr.Events[0].Site = 9 }, "site 9 out of range"},
		{"zero request", func(tr *Trace) { tr.Events[0].Req = 0 }, "non-positive request"},
		{"granted below req", func(tr *Trace) { tr.Events[0].Granted = 8 }, "granted 8 < requested"},
		{"forward free ref", func(tr *Trace) { tr.Events[2].AllocSeq = 4 }, "not an earlier event"},
		{"free ref to free", func(tr *Trace) { tr.Events[3].AllocSeq = 2 }, "is not an alloc"},
		{"double free", func(tr *Trace) { tr.Events[3].AllocSeq = 0 }, "double free"},
	}
	for _, tc := range cases {
		tr := sample()
		tc.mut(tr)
		err := tr.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestStats(t *testing.T) {
	s := sample().Stats()
	want := Stats{
		Events: 5, Allocs: 3, Frees: 2, Leaked: 1,
		CrossThreadFrees: 1,
		ReqBytes:         132, GrantedBytes: 160,
		PeakLiveObjects: 2, PeakLiveBytes: 124,
	}
	if s != want {
		t.Fatalf("Stats() = %+v, want %+v", s, want)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sample()
	enc := tr.Encode()
	if !bytes.HasPrefix(enc, []byte(Magic)) {
		t.Fatalf("encoded trace does not start with magic %q", Magic)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Name != tr.Name || len(got.Events) != len(tr.Events) {
		t.Fatalf("decoded header mismatch: %q/%d events", got.Name, len(got.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got.Events[i], tr.Events[i])
		}
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("re-encoding the decoded trace is not byte-identical")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := sample().Encode()
	if _, err := Decode(enc[:len(enc)/2]); err == nil {
		t.Error("truncated trace decoded without error")
	}
	if _, err := Decode(append(append([]byte{}, enc...), 0x7)); err == nil {
		t.Error("trailing garbage decoded without error")
	}
	bad := append([]byte{}, enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic decoded without error")
	}
}

// oneAlloc encodes a one-thread, one-site trace holding a single
// alloc event whose thread and site indices are written raw, so they
// can exceed what Encode would ever produce.
func oneAlloc(thread, site uint64) []byte {
	b := append([]byte(Magic), 0)       // empty name
	b = append(b, 1, 0)                 // sites: [""]
	b = append(b, 1, 2, 't', '0')       // threads: ["t0"]
	b = append(b, 1, byte(OpAlloc))     // one event
	b = binary.AppendUvarint(b, thread) // thread index
	b = append(b, 0)                    // timestamp delta
	b = binary.AppendUvarint(b, site)   // site index
	return append(b, 8, 16)             // req, granted
}

func TestDecodeRejectsOutOfRangeIndex(t *testing.T) {
	if _, err := Decode(oneAlloc(0, 0)); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	for _, tc := range []struct {
		name         string
		thread, site uint64
	}{
		{"thread 2^32", 1 << 32, 0},
		{"thread 2^31", 1 << 31, 0},
		{"site 2^32", 0, 1 << 32},
	} {
		_, err := Decode(oneAlloc(tc.thread, tc.site))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: got %v, want an out-of-range error", tc.name, err)
		}
	}
}

// FuzzTraceDecode feeds arbitrary bytes to Decode: it must never
// panic, and every trace it accepts must re-encode and decode to an
// equal trace.
func FuzzTraceDecode(f *testing.F) {
	enc := sample().Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(oneAlloc(0, 0))
	f.Add(oneAlloc(1<<32, 0))
	f.Add(oneAlloc(0, 1<<32))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(tr.Encode())
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again, tr)
		}
	})
}

func TestJSONLMirror(t *testing.T) {
	tr := sample()
	lines := strings.Split(strings.TrimSuffix(string(tr.JSONL()), "\n"), "\n")
	if len(lines) != 1+len(tr.Events) {
		t.Fatalf("JSONL has %d lines, want %d", len(lines), 1+len(tr.Events))
	}
	var hdr struct {
		Format string   `json:"format"`
		Name   string   `json:"name"`
		Sites  []string `json:"sites"`
		Events int      `json:"events"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Format != "AMPTRC1" || hdr.Name != "sample" || hdr.Events != 5 || len(hdr.Sites) != 2 {
		t.Fatalf("bad header: %+v", hdr)
	}
	for i, line := range lines[1:] {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %d: %v", i, err)
		}
	}
}

func TestCorporaDeterministicAndValid(t *testing.T) {
	names := CorpusNames()
	if len(names) != 4 {
		t.Fatalf("CorpusNames() = %v, want 4 corpora", names)
	}
	for _, name := range names {
		tr, err := Corpus(name)
		if err != nil {
			t.Fatalf("Corpus(%q): %v", name, err)
		}
		if tr.Name != name {
			t.Errorf("%s: trace named %q", name, tr.Name)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
		s := tr.Stats()
		if s.Allocs < 1000 {
			t.Errorf("%s: only %d allocs, corpus too small to exercise allocators", name, s.Allocs)
		}
		// Synthesis must be a pure function of its parameters: a fresh
		// (non-memoized) synthesis encodes byte-identically.
		if !bytes.Equal(corpusSynths[name]().Encode(), tr.Encode()) {
			t.Errorf("%s: re-synthesis is not byte-identical", name)
		}
	}
	if _, err := Corpus("nope"); err == nil {
		t.Error("unknown corpus name did not error")
	}
}

func TestCorpusShapes(t *testing.T) {
	handoff, err := Corpus("handoff")
	if err != nil {
		t.Fatal(err)
	}
	hs := handoff.Stats()
	if hs.Frees == 0 || float64(hs.CrossThreadFrees)/float64(hs.Frees) < 0.5 {
		t.Errorf("handoff: %d/%d cross-thread frees, want majority", hs.CrossThreadFrees, hs.Frees)
	}
	web, err := Corpus("websession")
	if err != nil {
		t.Fatal(err)
	}
	ws := web.Stats()
	if ws.CrossThreadFrees != 0 {
		t.Errorf("websession: %d cross-thread frees, want none", ws.CrossThreadFrees)
	}
	if ws.Leaked == 0 {
		t.Error("websession: expected a long-lived leaked residue")
	}
}

func TestAnalyze(t *testing.T) {
	a := Analyze(sample())
	if a.Stats.Allocs != 3 || len(a.SizeHist) == 0 || len(a.Threads) != 2 {
		t.Fatalf("unexpected analysis: %+v", a)
	}
	// Buckets: 24->32, 100->128, 8->16; hottest site is the attributed one.
	if a.SizeHist[0].Max != 16 || a.SizeHist[1].Max != 32 || a.SizeHist[2].Max != 128 {
		t.Fatalf("size buckets: %+v", a.SizeHist)
	}
	if a.Sites[0].Site != "make_node@12(node)" || a.Sites[0].Allocs != 2 {
		t.Fatalf("top site: %+v", a.Sites)
	}
	out := a.String()
	for _, want := range []string{"trace sample: 5 events", "cross-thread frees: 1", "make_node@12(node)"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	j, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Analysis
	if err := json.Unmarshal(j, &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.LifetimeP50 != a.LifetimeP50 || back.Stats != a.Stats {
		t.Fatal("JSON round-trip lost fields")
	}
}

func TestBucketMax(t *testing.T) {
	cases := map[int64]int64{1: 16, 16: 16, 17: 32, 32: 32, 33: 64, 1000: 1024, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := bucketMax(n); got != want {
			t.Errorf("bucketMax(%d) = %d, want %d", n, got, want)
		}
	}
}
