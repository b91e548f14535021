package workload

import "ipd/internal/telemetry"

// IngressShare is one ingress slice of a heavy hitter's attribution.
type IngressShare struct {
	Ingress string  `json:"ingress"`
	Count   uint64  `json:"count"`
	Share   float64 `json:"share"`
}

// AggregateInfo is one heavy-hitter row of the snapshot.
type AggregateInfo struct {
	Prefix string `json:"prefix"`
	// Count is the aggregate's profiled count in the current decay horizon;
	// ErrBound the space-saving overcount bound (true count is in
	// [Count-ErrBound, Count]). Multiply by sample_n for stream estimates.
	Count    uint64 `json:"count"`
	ErrBound uint64 `json:"err_bound"`
	// Share is Count over the decayed profiled mass.
	Share float64 `json:"share"`
	// Ingress is the dominant ingress; IngressShares the tracked breakdown.
	Ingress       string         `json:"ingress"`
	IngressShares []IngressShare `json:"ingress_shares"`
}

// LatencyDist is a latency distribution summary, in seconds.
type LatencyDist struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_s"`
	P50   float64 `json:"p50_s"`
	P90   float64 `json:"p90_s"`
	P99   float64 `json:"p99_s"`
	Max   float64 `json:"max_s"`
}

// Snapshot is the profiler's full state for /ipd/workload and the example
// harness artifacts.
type Snapshot struct {
	// Records counts every record offered; Profiled those past the 1-in-
	// SampleN thinning gate; Mass the decayed profiled total that shares
	// are measured against.
	Records  uint64 `json:"records"`
	Profiled uint64 `json:"profiled"`
	Mass     uint64 `json:"mass"`
	SampleN  int    `json:"sample_n"`
	Cycles   uint64 `json:"cycles"`
	TopK     int    `json:"top_k"`

	TopAggregates []AggregateInfo `json:"top_aggregates"`

	// IngestLatency measures export (skew-corrected) to ingest dequeue;
	// CommitLatency export to the next stage-2 cycle's vote fold. Both are
	// wall-clock and sampled 1-in-latencyEvery profiled records.
	IngestLatency LatencyDist `json:"ingest_latency"`
	CommitLatency LatencyDist `json:"commit_latency"`
}

// Snapshot returns the profiler's current state (safe for concurrent use).
func (p *Profiler) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()

	s := Snapshot{
		Records:  p.seen.Load(),
		Profiled: p.profiled,
		Mass:     p.mass,
		SampleN:  p.opts.SampleN,
		Cycles:   p.cycles,
		TopK:     p.opts.TopK,
	}

	for _, e := range p.hh.sorted() {
		ai := AggregateInfo{
			Prefix:        keyPrefix(e.key).String(),
			Count:         e.count,
			ErrBound:      e.errBound,
			Ingress:       e.topIngress().String(),
			IngressShares: e.ingressShares(),
		}
		if p.mass > 0 {
			ai.Share = float64(e.count) / float64(p.mass)
		}
		s.TopAggregates = append(s.TopAggregates, ai)
	}

	s.IngestLatency = p.latIngest.stats()
	s.CommitLatency = p.latCommit.stats()
	return s
}

// RegisterMetrics exposes the profiler as ipd_workload_* metrics on reg and
// mirrors latency observations into registry histograms. Call once during
// setup.
func (p *Profiler) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("ipd_workload_records_total",
		"Records offered to the workload profiler.",
		func() float64 { return float64(p.seen.Load()) })
	reg.CounterFunc("ipd_workload_profiled_total",
		"Records profiled after 1-in-N thinning.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.profiled)
		})
	reg.GaugeFunc("ipd_workload_top_share",
		"Hottest aggregate's share of the decayed profiled mass.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			top := p.topLocked(1)
			if len(top) == 0 {
				return 0
			}
			return top[0].Share
		})

	p.mu.Lock()
	p.mirror.ingest = reg.Histogram("ipd_workload_ingest_latency_seconds",
		"Export-to-ingest latency, skew-corrected, sampled.", telemetry.DurationBuckets())
	p.mirror.commit = reg.Histogram("ipd_workload_commit_latency_seconds",
		"Export-to-classification-commit latency, sampled.", telemetry.DurationBuckets())
	p.mu.Unlock()
}
