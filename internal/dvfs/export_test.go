package dvfs

// ProbeCounts reports how many busy-core probes p decided on the fast
// metric and how many on the exact one, and how many queued requests' VPs
// the fast metric took from the exact sum.
func ProbeCounts(p *ModelPolicy) (fast, exact, exactTerms int64) {
	return p.fastProbes, p.exactProbes, p.exactTerms
}
