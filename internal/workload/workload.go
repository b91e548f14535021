// Package workload is the always-on, fixed-memory workload profiler: it
// measures the traffic the engine sees, off the stage-2 decision path and in
// memory bounded by the options. It tracks two things:
//
//   - the top-K heavy-hitter /24 (IPv6 /48) aggregates, via a space-saving
//     summary with per-ingress attribution and epoch decay — which prefixes
//     are the elephants, through which ingress they enter, and what share of
//     the traffic they carry (the signal behind the hot-prefix alert);
//   - end-to-end record latency (export timestamp, corrected by the
//     exporter-health skew estimate, to ingest dequeue and to the next
//     classification commit).
//
// Feed the per-record path with ObserveRecord (cmd/ipd's trace loop) or the
// batch path with ObserveBatch (core.Server.SetWorkload); both apply the same
// deterministic 1-in-SampleN thinning. Drive cycles by attaching the profiler
// to a timeline.Collector, which calls TickCycle once per stage-2 cycle so
// the hot-prefix alert stream stays journal-replayable.
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

	// SampleN thins the per-record path: only every Nth record reaches the
	// summary (default 16; 1 profiles every record). The thinning is
	// deterministic (a shared counter), so two identical runs profile
	// identical subsets. Shares are ratios and unbiased under thinning;
	// absolute counts in snapshots are the profiled counts with SampleN
	// reported alongside.
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

	profiled      uint64 // records past the thinning gate, cumulative
	windowRecords uint64 // profiled records this cycle
	cycles        uint64

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
		opts:       o,
		sampleN:    n,
		sampleMask: mask,
		hh:         newSummary(o.TopK),
	}
}

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

// ObserveBatch feeds one drained collector batch (core.Server.SetWorkload)
// through the same deterministic thinning as ObserveRecord: the record at
// stream position k (1-based) is profiled when k%SampleN == 0. Only those
// records are visited, and a batch holding none takes no lock.
func (p *Profiler) ObserveBatch(batch []flow.Record) {
	n := uint64(len(batch))
	base := p.seen.Add(n) - n
	// Batch index i sits at stream position base+i+1, so the first admitted
	// index is the one that brings that position to a multiple of SampleN.
	i := p.sampleN - 1 - base%p.sampleN
	if i >= n {
		return
	}
	p.mu.Lock()
	for ; i < n; i += p.sampleN {
		p.observeLocked(batch[i])
	}
	p.mu.Unlock()
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
	// Wall-clock latency quantiles in seconds (timeline-only).
	IngestP50, IngestP99 float64
	CommitP50, CommitP99 float64
}

// topInCycleStats bounds CycleStats.Top.
const topInCycleStats = 8

// TickCycle folds the cycle window at a stage-2 boundary: advances the
// epoch decay, folds the pending commit latencies, and returns the
// deterministic cycle stats. The timeline collector calls it once per cycle
// sample with the cycle id.
func (p *Profiler) TickCycle(cycle uint64) CycleStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cycles++

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
		Cycle:         cycle,
		WindowRecords: p.windowRecords,
		Mass:          p.mass,
		Top:           p.topLocked(topInCycleStats),
		IngestP50:     p.latIngest.quantile(0.50),
		IngestP99:     p.latIngest.quantile(0.99),
		CommitP50:     p.latCommit.quantile(0.50),
		CommitP99:     p.latCommit.quantile(0.99),
	}
	p.windowRecords = 0

	// Epoch decay: halve the summary and the mass it is measured against.
	// Shares survive the halving unchanged; only fresh traffic moves them.
	if p.cycles%uint64(p.opts.DecayEvery) == 0 {
		p.hh.halve()
		p.mass /= 2
	}
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
