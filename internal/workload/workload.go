// Package workload is the always-on, fixed-memory workload profiler that
// de-risks the scale arc: before the engine is sharded (ROADMAP item 1) or
// the hot path batched behind an LPM cache (item 2), this package measures
// whether the assumptions those designs rest on actually hold for the
// traffic at hand.
//
// It tracks four things, all in memory bounded by the options and none on
// the stage-2 decision path:
//
//   - the top-K heavy-hitter /24 (IPv6 /48) aggregates, via a space-saving
//     summary with per-ingress attribution and epoch decay — "is traffic
//     /24-local and elephant-dominated, and which prefixes are the
//     elephants";
//   - a simulated shard balance: per-cycle record counts bucketed by the
//     top 2..MaxDepth prefix bits of the source address, folded into a
//     max/mean imbalance factor per candidate shard depth — "what shard
//     count and depth keeps load even";
//   - batch-locality stats over the collector's drain batches (distinct
//     aggregates per batch, same-aggregate run lengths) — "what hit rate
//     would a per-batch LPM cache see";
//   - end-to-end record latency (export timestamp, corrected by the
//     exporter-health skew estimate, to ingest dequeue and to the next
//     classification commit).
//
// Feed the per-record path with ObserveRecord (cmd/ipd's trace loop) or the
// batch path with ObserveBatch (core.Server.SetWorkload); drive cycles by
// attaching the profiler to a timeline.Collector, which calls TickCycle once
// per stage-2 cycle on statistical time so the hot-prefix alert stream stays
// journal-replayable.
package workload

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ipd/internal/flow"
)

// Options parameterizes a Profiler. The zero value selects the defaults.
type Options struct {
	// TopK is the heavy-hitter summary capacity (default 32, minimum 2).
	// The space-saving error bound is total/TopK: doubling K halves the
	// worst-case overcount.
	TopK int

	// MaxDepth is the deepest candidate shard depth simulated; per-cycle
	// imbalance factors cover depths 2..MaxDepth (default 10, clamped to
	// [2, 10] — 2^10 buckets is the fixed table).
	MaxDepth int

	// SampleN thins the per-record path: only every Nth record reaches the
	// summary (default 16; 1 profiles every record). The thinning is
	// deterministic (a shared counter), so two identical runs profile
	// identical subsets. Shares and imbalance factors are ratios and
	// unbiased under thinning; absolute counts in snapshots are the
	// profiled counts with SampleN reported alongside.
	SampleN int

	// DecayEvery halves the heavy-hitter counters every N cycles (default
	// 16): the epoch decay that lets yesterday's elephant fade instead of
	// occupying a summary slot forever.
	DecayEvery int

	// Now is the wall clock used for latency measurement (default
	// time.Now). Latency is wall-clock by nature: it feeds the snapshot and
	// the timeline series, never the journaled alert decisions.
	Now func() time.Time

	// Skew, when non-nil, reports a router's smoothed exporter-minus-
	// collector clock skew in seconds (exphealth.Tracker.RouterSkew), so
	// export→ingest latency is measured against the corrected export time
	// instead of a drifting exporter clock.
	Skew func(flow.RouterID) float64
}

func (o Options) withDefaults() Options {
	if o.TopK < 2 {
		if o.TopK == 0 {
			o.TopK = 32
		} else {
			o.TopK = 2
		}
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 10
	}
	if o.MaxDepth < 2 {
		o.MaxDepth = 2
	}
	if o.MaxDepth > 10 {
		o.MaxDepth = 10
	}
	if o.SampleN <= 0 {
		o.SampleN = 16
	}
	if o.DecayEvery <= 0 {
		o.DecayEvery = 16
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Profiler is the workload profiler. All methods are safe for concurrent
// use; the per-record fast path is one atomic add plus, for every SampleN-th
// record, a short critical section.
type Profiler struct {
	opts Options

	// seen counts every record offered, before thinning; it doubles as the
	// deterministic sampling counter.
	seen atomic.Uint64

	// sampleN mirrors opts.SampleN as uint64; sampleMask is sampleN-1 when
	// sampleN is a power of two (the default), letting the per-record gate
	// use a mask instead of a division.
	sampleN    uint64
	sampleMask uint64

	mu sync.Mutex

	hh   summary // heavy-hitter space-saving summary
	mass uint64  // profiled records in the current decay horizon

	profiled uint64 // records past the thinning gate, cumulative
	cycles   uint64

	// shard simulation: per-cycle record counts at the deepest candidate
	// depth; shallower depths fold at cycle time.
	buckets       []uint64  // len 1<<MaxDepth
	windowRecords uint64    // profiled records this cycle
	imbalance     []float64 // EWMA imbalance per depth (index = depth)
	imbalanceLast []float64 // last cycle's raw imbalance per depth
	hotShardShare []float64 // last cycle's max shard share per depth

	// batch locality (cumulative; reported as averages).
	batches       uint64
	batchRecords  uint64
	batchDistinct uint64
	batchRuns     uint64
	scratch       map[uint64]struct{} // per-batch distinct set, reused

	// per-cycle locality deltas for the timeline series.
	lastBatches, lastBatchRecords, lastBatchDistinct, lastBatchRuns uint64

	// latency.
	latIngest latHist
	latCommit latHist
	pending   []time.Time // corrected export times awaiting the next cycle
	mirror    latMirror   // optional telemetry histograms (RegisterMetrics)
}

// pendingCap bounds the export timestamps held for the commit-latency fold:
// fixed memory no matter how many records arrive between cycles.
const pendingCap = 256

// latencyEvery samples the latency measurement every Nth profiled record —
// the only hot-path site that reads the wall clock.
const latencyEvery = 64

// New returns a profiler with the given options.
func New(opts Options) *Profiler {
	o := opts.withDefaults()
	n := uint64(o.SampleN)
	var mask uint64
	if n&(n-1) == 0 {
		mask = n - 1
	}
	return &Profiler{
		opts:          o,
		sampleN:       n,
		sampleMask:    mask,
		hh:            newSummary(o.TopK),
		buckets:       make([]uint64, 1<<o.MaxDepth),
		imbalance:     make([]float64, o.MaxDepth+1),
		imbalanceLast: make([]float64, o.MaxDepth+1),
		hotShardShare: make([]float64, o.MaxDepth+1),
		scratch:       make(map[uint64]struct{}, 512),
	}
}

// Options returns the effective (defaulted) options.
func (p *Profiler) Options() Options { return p.opts }

// ObserveRecord feeds one record from the per-record ingest path (cmd/ipd's
// trace loop). The fast path for a thinned-out record is one atomic add.
func (p *Profiler) ObserveRecord(rec flow.Record) {
	n := p.seen.Add(1)
	if p.sampleMask != 0 {
		if n&p.sampleMask != 0 {
			return
		}
	} else if n%p.sampleN != 0 {
		return
	}
	p.mu.Lock()
	p.observeLocked(rec)
	p.mu.Unlock()
}

// ObserveBatch feeds one drained collector batch (core.Server.SetWorkload).
// Heavy-hitter and shard counts use the same deterministic thinning as
// ObserveRecord; the locality pass always sees the full batch — run lengths
// and distinct-per-batch are properties of the batch, not of a sample.
func (p *Profiler) ObserveBatch(batch []flow.Record) {
	if len(batch) == 0 {
		return
	}
	base := p.seen.Add(uint64(len(batch))) - uint64(len(batch))
	p.mu.Lock()
	defer p.mu.Unlock()

	sampleN := p.sampleN
	clear(p.scratch)
	var (
		runs    uint64
		lastKey uint64
		haveKey bool
	)
	for i, rec := range batch {
		key, ok := aggKey(rec.Src)
		if ok {
			if _, dup := p.scratch[key]; !dup {
				p.scratch[key] = struct{}{}
			}
			if !haveKey || key != lastKey {
				runs++
			}
			lastKey, haveKey = key, true
		}
		if (base+uint64(i)+1)%sampleN == 0 {
			p.observeLocked(rec)
		}
	}
	p.batches++
	p.batchRecords += uint64(len(batch))
	p.batchDistinct += uint64(len(p.scratch))
	p.batchRuns += runs
}

// observeLocked profiles one record past the thinning gate. Callers hold
// p.mu.
func (p *Profiler) observeLocked(rec flow.Record) {
	key, ok := aggKey(rec.Src)
	if !ok {
		return
	}
	p.profiled++
	p.mass++
	p.windowRecords++
	p.hh.observe(key, rec.In)
	p.buckets[shardBucket(rec.Src, p.opts.MaxDepth)]++

	if p.profiled%latencyEvery == 0 && !rec.Ts.IsZero() {
		now := p.opts.Now()
		export := rec.Ts
		if p.opts.Skew != nil {
			// The exporter clock runs skew seconds ahead of the collector
			// clock; subtracting it re-anchors the export stamp.
			export = export.Add(-time.Duration(p.opts.Skew(rec.In.Router) * float64(time.Second)))
		}
		p.latIngest.observe(now.Sub(export))
		if p.mirror.ingest != nil {
			p.mirror.ingest.Observe(now.Sub(export).Seconds())
		}
		if len(p.pending) < pendingCap {
			p.pending = append(p.pending, export)
		}
	}
}

// HotAggregate is one heavy-hitter slice of a cycle's deterministic stats.
type HotAggregate struct {
	Prefix  netip.Prefix
	Ingress flow.Ingress
	// Share is the aggregate's share of the decayed profiled mass.
	Share float64
	Count uint64
}

// CycleStats is the deterministic per-cycle view TickCycle returns: every
// field is a pure function of the record stream and the options, so the
// hot-prefix alert machine downstream replays byte-equal. Wall-clock latency
// quantiles are surfaced separately (IngestP50/P99, CommitP50/P99) for the
// timeline series only — an alert machine must not consume them.
type CycleStats struct {
	Cycle uint64
	// WindowRecords is the profiled record count this cycle; Mass the
	// decayed total the shares are measured against.
	WindowRecords uint64
	Mass          uint64
	// Top holds the hottest aggregates (at most 8), sorted by count
	// descending then prefix.
	Top []HotAggregate
	// ImbalanceByDepth[d] is this cycle's EWMA-smoothed max/mean shard load
	// factor at depth d (indices below 2 are zero); 0 means no data yet.
	ImbalanceByDepth []float64
	// Plan is the current shard-plan recommendation.
	Plan ShardPlan
	// Per-cycle batch-locality deltas (zero when the batch path is unused).
	Batches          uint64
	BatchRecords     uint64
	BatchDistinct    uint64
	PredictedHitRate float64
	MeanRunLen       float64
	// Wall-clock latency quantiles in seconds (timeline-only).
	IngestP50, IngestP99 float64
	CommitP50, CommitP99 float64
}

// topInCycleStats bounds CycleStats.Top.
const topInCycleStats = 8

// TickCycle folds the cycle window at a stage-2 boundary: computes the
// per-depth imbalance factors, advances the epoch decay, folds the pending
// commit latencies, and returns the deterministic cycle stats. The timeline
// collector calls it once per cycle sample with the cycle id and statistical
// time.
func (p *Profiler) TickCycle(cycle uint64, at time.Time) CycleStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cycles++

	// Shard imbalance from this cycle's bucket counts, then reset the
	// window.
	for d := 2; d <= p.opts.MaxDepth; d++ {
		imb, hot := foldImbalance(p.buckets, p.opts.MaxDepth, d)
		p.imbalanceLast[d] = imb
		p.hotShardShare[d] = hot
		if imb > 0 {
			if p.imbalance[d] == 0 {
				p.imbalance[d] = imb
			} else {
				p.imbalance[d] += imbalanceAlpha * (imb - p.imbalance[d])
			}
		}
	}
	clear(p.buckets)

	// Commit latency: the records profiled since the last cycle have their
	// votes folded by the stage-2 cycle that just ran — the commit point.
	if len(p.pending) > 0 {
		now := p.opts.Now()
		for _, export := range p.pending {
			p.latCommit.observe(now.Sub(export))
			if p.mirror.commit != nil {
				p.mirror.commit.Observe(now.Sub(export).Seconds())
			}
		}
		p.pending = p.pending[:0]
	}

	st := CycleStats{
		Cycle:            cycle,
		WindowRecords:    p.windowRecords,
		Mass:             p.mass,
		Top:              p.topLocked(topInCycleStats),
		ImbalanceByDepth: append([]float64(nil), p.imbalance...),
		Plan:             p.planLocked(),
		Batches:          p.batches - p.lastBatches,
		BatchRecords:     p.batchRecords - p.lastBatchRecords,
		BatchDistinct:    p.batchDistinct - p.lastBatchDistinct,
		IngestP50:        p.latIngest.quantile(0.50),
		IngestP99:        p.latIngest.quantile(0.99),
		CommitP50:        p.latCommit.quantile(0.50),
		CommitP99:        p.latCommit.quantile(0.99),
	}
	if st.BatchRecords > 0 {
		st.PredictedHitRate = 1 - float64(st.BatchDistinct)/float64(st.BatchRecords)
	}
	if runs := p.batchRuns - p.lastBatchRuns; runs > 0 {
		st.MeanRunLen = float64(st.BatchRecords) / float64(runs)
	}
	p.lastBatches, p.lastBatchRecords = p.batches, p.batchRecords
	p.lastBatchDistinct, p.lastBatchRuns = p.batchDistinct, p.batchRuns
	p.windowRecords = 0

	// Epoch decay: halve the summary and the mass it is measured against.
	// Shares survive the halving unchanged; only fresh traffic moves them.
	if p.cycles%uint64(p.opts.DecayEvery) == 0 {
		p.hh.halve()
		p.mass /= 2
	}
	_ = at // the statistical time is the caller's timestamp; nothing here needs it
	return st
}

// topLocked returns the n highest-count aggregates, sorted by count
// descending then prefix string. Callers hold p.mu.
func (p *Profiler) topLocked(n int) []HotAggregate {
	entries := p.hh.sorted()
	if len(entries) > n {
		entries = entries[:n]
	}
	out := make([]HotAggregate, 0, len(entries))
	for _, e := range entries {
		ha := HotAggregate{
			Prefix:  keyPrefix(e.key),
			Ingress: e.topIngress(),
			Count:   e.count,
		}
		if p.mass > 0 {
			ha.Share = float64(e.count) / float64(p.mass)
		}
		out = append(out, ha)
	}
	return out
}
