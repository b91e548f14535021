package workload

import (
	"fmt"

	"ipd/internal/telemetry"
)

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

// DepthImbalance is one candidate shard depth's balance row.
type DepthImbalance struct {
	Depth  int `json:"depth"`
	Shards int `json:"shards"`
	// Imbalance is the EWMA max/mean load factor; LastCycle the raw factor
	// of the most recent cycle; HotShardShare the hottest shard's share of
	// the last cycle's records.
	Imbalance     float64 `json:"imbalance"`
	LastCycle     float64 `json:"last_cycle"`
	HotShardShare float64 `json:"hot_shard_share"`
}

// LocalityStats summarizes the drain-batch locality measurement — the
// premise behind a per-batch LPM cache (ROADMAP item 2): flow records
// cluster by /24, so consecutive records repeat aggregates.
type LocalityStats struct {
	Batches uint64 `json:"batches"`
	Records uint64 `json:"records"`
	// DistinctPerBatch is the mean distinct aggregates per batch;
	// MeanRunLen the mean length of consecutive same-aggregate runs;
	// PredictedHitRate what a per-batch aggregate-keyed LPM cache would
	// hit (1 - distinct/records).
	DistinctPerBatch float64 `json:"distinct_per_batch"`
	MeanRunLen       float64 `json:"mean_run_len"`
	PredictedHitRate float64 `json:"predicted_hit_rate"`
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

	TopAggregates []AggregateInfo  `json:"top_aggregates"`
	ShardPlan     ShardPlan        `json:"shard_plan"`
	ShardDepths   []DepthImbalance `json:"shard_depths"`
	Locality      LocalityStats    `json:"batch_locality"`

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

	s.ShardPlan = p.planLocked()
	for d := 2; d <= p.opts.MaxDepth; d++ {
		s.ShardDepths = append(s.ShardDepths, DepthImbalance{
			Depth:         d,
			Shards:        1 << d,
			Imbalance:     p.imbalance[d],
			LastCycle:     p.imbalanceLast[d],
			HotShardShare: p.hotShardShare[d],
		})
	}

	s.Locality = LocalityStats{Batches: p.batches, Records: p.batchRecords}
	if p.batches > 0 {
		s.Locality.DistinctPerBatch = float64(p.batchDistinct) / float64(p.batches)
	}
	if p.batchRecords > 0 {
		s.Locality.PredictedHitRate = 1 - float64(p.batchDistinct)/float64(p.batchRecords)
	}
	if p.batchRuns > 0 {
		s.Locality.MeanRunLen = float64(p.batchRecords) / float64(p.batchRuns)
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
	reg.GaugeFunc("ipd_workload_plan_shards",
		"Recommended shard count from the shard-balance simulation.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.planLocked().Shards)
		})
	reg.GaugeFunc("ipd_workload_plan_imbalance",
		"Smoothed max/mean load factor at the recommended shard depth.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.planLocked().Imbalance
		})
	for d := 2; d <= p.opts.MaxDepth; d++ {
		depth := d
		reg.GaugeFunc(fmt.Sprintf("ipd_workload_shard_imbalance_d%d", depth),
			fmt.Sprintf("Smoothed max/mean shard load factor at depth %d (%d shards).", depth, 1<<depth),
			func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				return p.imbalance[depth]
			})
	}
	reg.CounterFunc("ipd_workload_batches_total",
		"Drain batches observed by the locality pass.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.batches)
		})
	reg.GaugeFunc("ipd_workload_lpm_hit_rate",
		"Predicted per-batch LPM cache hit rate (1 - distinct/records).",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.batchRecords == 0 {
				return 0
			}
			return 1 - float64(p.batchDistinct)/float64(p.batchRecords)
		})
	reg.GaugeFunc("ipd_workload_mean_run_len",
		"Mean consecutive same-aggregate run length within drain batches.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.batchRuns == 0 {
				return 0
			}
			return float64(p.batchRecords) / float64(p.batchRuns)
		})

	p.mu.Lock()
	p.mirror.ingest = reg.Histogram("ipd_workload_ingest_latency_seconds",
		"Export-to-ingest latency, skew-corrected, sampled.", telemetry.DurationBuckets())
	p.mirror.commit = reg.Histogram("ipd_workload_commit_latency_seconds",
		"Export-to-classification-commit latency, sampled.", telemetry.DurationBuckets())
	p.mu.Unlock()
}
