package heapobsv

import (
	"fmt"
	"sort"
	"strings"

	"amplify/internal/mem"
	"amplify/internal/sim"
)

// SiteProfile is a pprof-style allocation-site profile: every object
// and buffer birth is attributed to its MiniCC `fn@line` site plus the
// shadow call stack leading there, and deaths keep live bytes/objects
// exact. It is a sim.Tracer fed by the VM's enter/exit, birth and
// death events. Pool hits and shadow reuses count as births and deaths
// too: the profile tracks program-level object lifetimes, not
// allocator traffic.
type SiteProfile struct {
	stacks map[int][]string     // per-thread shadow call stacks
	sites  map[string]*siteStat // keyed by "caller;...;fn@line(class)"
	live   map[mem.Ref]liveObj
}

type siteStat struct {
	allocObjs, allocBytes int64
	liveObjs, liveBytes   int64
	peakBytes             int64 // high-water of liveBytes at this site
}

type liveObj struct {
	key   string
	bytes int64
}

// NewSiteProfile creates an empty profile.
func NewSiteProfile() *SiteProfile {
	return &SiteProfile{
		stacks: make(map[int][]string),
		sites:  make(map[string]*siteStat),
		live:   make(map[mem.Ref]liveObj),
	}
}

// Event implements sim.Tracer: enter/exit maintain the per-thread
// shadow stacks, births and deaths the site counters. Births without a
// Site (workload generators) are not attributed.
func (p *SiteProfile) Event(e sim.Event) {
	switch e.Kind {
	case sim.EvEnter:
		p.stacks[e.Thread] = append(p.stacks[e.Thread], e.Detail)
	case sim.EvExit:
		if st := p.stacks[e.Thread]; len(st) > 0 {
			p.stacks[e.Thread] = st[:len(st)-1]
		}
	case sim.EvAlloc, sim.EvBirth:
		if e.Site != "" {
			p.birth(e.Thread, e.Site, e.Arg1, mem.Ref(e.Arg2))
		}
	case sim.EvFree, sim.EvDeath:
		p.death(mem.Ref(e.Arg1))
	}
}

// birth records an object of the given bytes born at site
// ("fn@line(Class)") on the thread.
func (p *SiteProfile) birth(thread int, site string, bytes int64, ref mem.Ref) {
	key := site
	if st := p.stacks[thread]; len(st) > 0 {
		key = strings.Join(st, ";") + ";" + site
	}
	s := p.sites[key]
	if s == nil {
		s = &siteStat{}
		p.sites[key] = s
	}
	s.allocObjs++
	s.allocBytes += bytes
	s.liveObjs++
	s.liveBytes += bytes
	if s.liveBytes > s.peakBytes {
		s.peakBytes = s.liveBytes
	}
	p.live[ref] = liveObj{key: key, bytes: bytes}
}

// death records the death of the object at ref, wherever it was born.
// Unknown refs (births outside the profiled engine) are ignored.
func (p *SiteProfile) death(ref mem.Ref) {
	obj, ok := p.live[ref]
	if !ok {
		return
	}
	delete(p.live, ref)
	s := p.sites[obj.key]
	s.liveObjs--
	s.liveBytes -= obj.bytes
}

// Metrics the folded export understands.
const (
	MetricAllocObjects = "alloc_objects"
	MetricAllocBytes   = "alloc_bytes"
	MetricInuseObjects = "inuse_objects"
	MetricInuseBytes   = "inuse_bytes"
	MetricPeakBytes    = "peak_bytes"
)

// Folded renders the profile in folded-stack format ("a;b;fn@line N"
// per site, sorted by stack) for the chosen metric.
func (p *SiteProfile) Folded(metric string) string {
	keys := p.sortedKeys()
	var b strings.Builder
	for _, k := range keys {
		s := p.sites[k]
		var v int64
		switch metric {
		case MetricAllocObjects:
			v = s.allocObjs
		case MetricAllocBytes:
			v = s.allocBytes
		case MetricInuseObjects:
			v = s.liveObjs
		case MetricInuseBytes:
			v = s.liveBytes
		case MetricPeakBytes:
			v = s.peakBytes
		default:
			v = s.allocBytes
		}
		if v != 0 {
			fmt.Fprintf(&b, "%s %d\n", k, v)
		}
	}
	return b.String()
}

// Table renders a human-readable per-site summary, heaviest
// (cumulative bytes) sites first, ties broken by site name.
func (p *SiteProfile) Table() string {
	keys := p.sortedKeys()
	sort.SliceStable(keys, func(i, j int) bool {
		return p.sites[keys[i]].allocBytes > p.sites[keys[j]].allocBytes
	})
	var b strings.Builder
	b.WriteString("allocation sites (by cumulative bytes)\n")
	fmt.Fprintf(&b, "%12s %12s %10s %12s %12s  %s\n",
		"allocs", "bytes", "live_objs", "live_bytes", "peak_bytes", "site")
	for _, k := range keys {
		s := p.sites[k]
		// The leaf frame is the site; the callers provide context.
		leaf := k
		if i := strings.LastIndexByte(k, ';'); i >= 0 {
			leaf = k[i+1:] + " <- " + k[:i]
		}
		fmt.Fprintf(&b, "%12d %12d %10d %12d %12d  %s\n",
			s.allocObjs, s.allocBytes, s.liveObjs, s.liveBytes, s.peakBytes, leaf)
	}
	return b.String()
}

// Totals reports the profile-wide object and byte counters.
func (p *SiteProfile) Totals() (allocObjs, allocBytes, liveObjs, liveBytes int64) {
	for _, s := range p.sites {
		allocObjs += s.allocObjs
		allocBytes += s.allocBytes
		liveObjs += s.liveObjs
		liveBytes += s.liveBytes
	}
	return
}

func (p *SiteProfile) sortedKeys() []string {
	keys := make([]string, 0, len(p.sites))
	for k := range p.sites {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
