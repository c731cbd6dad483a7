package heapobsv

// Samples returns the rows recorded so far.
func (t *Timeline) Samples() []Sample { return t.samples }

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
