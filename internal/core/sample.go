package core

import (
	"sort"
	"time"

	"ipd/internal/flow"
	"ipd/internal/governor"
)

// AlertKind enumerates the operational alerts the timeline analytics layer
// (Config.OnCycle) can raise. The kinds mirror the paper's longitudinal
// claims: a stable mapping neither flaps nor drifts.
type AlertKind uint8

const (
	// AlertFlap : a range's ingress classification oscillates above the
	// windowed transition-rate threshold. Subject is a prefix.
	AlertFlap AlertKind = iota
	// AlertDrift : an ingress's per-cycle traffic share shifted away from
	// its EWMA beyond the drift threshold. Subject is an ingress.
	AlertDrift
	// AlertExporterLoss : an exporter feed's smoothed sequence-gap loss
	// fraction crossed the raise threshold. Subject is an exporter feed
	// key ("netflow:R12", "ipfix:R3/256"), carried in Prefix.
	AlertExporterLoss
	// AlertExporterStale : an exporter feed went silent past the
	// exphealth.Options.StaleAfter threshold. Subject is an exporter feed
	// key.
	AlertExporterStale
	// AlertClockSkew : an exporter's export timestamps drifted from the
	// collector clock beyond exphealth.Options.SkewMax. Subject is an
	// exporter feed key.
	AlertClockSkew
	// AlertHotPrefix : one /24 (IPv6 /48) aggregate carries a share of the
	// profiled traffic above the hot-prefix threshold — an elephant prefix
	// that would dominate whatever shard it lands on. Subject is the
	// aggregate prefix, carried in Prefix; Ingress is the aggregate's
	// dominant ingress.
	AlertHotPrefix
	// AlertSketchShare : the fraction of unclassified ranges running in
	// the fixed-memory sketch tier crossed the raise threshold — so much
	// of the partition is on approximate (ε/δ-bounded) evidence that
	// classification accuracy is at risk. No subject: the alert is about
	// the pipeline.
	AlertSketchShare
)

func (k AlertKind) String() string {
	switch k {
	case AlertFlap:
		return "flap"
	case AlertDrift:
		return "drift"
	case AlertExporterLoss:
		return "exporter-loss"
	case AlertExporterStale:
		return "exporter-stale"
	case AlertClockSkew:
		return "clock-skew"
	case AlertHotPrefix:
		return "hot-prefix"
	case AlertSketchShare:
		return "sketch-share"
	}
	return "unknown"
}

// Alert is one analytics decision returned by Config.OnCycle. The engine
// turns each into an EventAlertRaised/EventAlertCleared lifecycle event
// stamped with the usual seq and cycle, so alerts are journaled and replay
// exactly like classification decisions.
type Alert struct {
	Kind AlertKind
	// Raise distinguishes a newly raised alert (true) from a clear (false).
	Raise bool
	// Prefix is the subject range for flap alerts and the exporter feed
	// key for exporter alerts; empty for drift alerts.
	Prefix string
	// Ingress is the subject ingress for drift alerts, and the last observed
	// ingress for flap alerts.
	Ingress flow.Ingress
	// Reason carries the threshold comparison that decided the alert
	// (ReasonFlapRate or ReasonShareDrift).
	Reason Reason
}

// IngressCycleStat is the per-ingress slice of one cycle sample: the share
// of the current counter mass entering through this ingress and how many
// classified ranges map to it.
type IngressCycleStat struct {
	Ingress flow.Ingress
	// Samples is the counter mass (post-decay votes) attributed to the
	// ingress across all active ranges; Share is Samples over the total mass
	// (0 when the engine holds no votes at all).
	Samples float64
	Share   float64
	// Ranges is the number of classified ranges mapped to the ingress.
	Ranges int
}

// CycleSample is the end-of-cycle observation delivered to Config.OnCycle:
// engine shape, per-cycle lifecycle deltas, per-ingress traffic makeup, and
// the governor's post-cycle snapshot. Slices reference engine-owned buffers
// that are reused on the next sample — the hook must copy anything it keeps.
type CycleSample struct {
	// Cycle is the stage-2 cycle id; At its statistical time; Duration its
	// wall-clock runtime (informational only — everything an analytics layer
	// derives deterministically should come from the virtual-time fields).
	Cycle    uint64
	At       time.Time
	Duration time.Duration

	// Engine shape after the cycle. SketchedRanges counts unclassified
	// ranges currently in the fixed-memory sketch tier (always 0 without
	// Config.Sketch).
	Ranges         int
	Classified     int
	IPStates       int
	SketchedRanges int

	// Depth4[b] / Depth6[b] count active ranges with prefix length b
	// (Depth4 has 33 buckets, Depth6 129).
	Depth4 []int
	Depth6 []int

	// Lifecycle deltas for this cycle.
	Splits          uint64
	Joins           uint64
	Drops           uint64
	Classifications uint64
	Invalidations   uint64
	Expirations     uint64
	Compactions     uint64

	// Ingress holds the per-ingress traffic stats, sorted by ingress.
	Ingress []IngressCycleStat

	// Governed reports whether a governor is attached; Governor is its
	// post-cycle snapshot when so.
	Governed bool
	Governor governor.Snapshot
}

// sampleBufs are the reusable buffers behind CycleSample's slices, so
// steady-state sampling allocates only per newly seen ingress.
type sampleBufs struct {
	// classified and sketched count the ranges in those states.
	classified, sketched int

	depth4  [33]int
	depth6  [129]int
	ingress []IngressCycleStat
	stats   map[flow.Ingress]*IngressCycleStat
}

func (b *sampleBufs) stat(in flow.Ingress) *IngressCycleStat {
	st := b.stats[in]
	if st == nil {
		st = &IngressCycleStat{Ingress: in}
		b.stats[in] = st
	}
	return st
}

// takeCensus is the one end-of-cycle pass over the active partition, into
// e.samp: it counts the sketched ranges for the gauge and, when sampling,
// fills the rest of the cycle sample (depth histograms, per-ingress mass).
// Called from runCycle after the govern phase, so it sees the cycle's final
// state; the pass touches only virtual-time counters, so the sample (and
// everything an analyzer derives from it) is deterministic for a given input
// trace.
func (e *Engine) takeCensus(sampling bool) {
	if e.samp == nil {
		e.samp = &sampleBufs{stats: make(map[flow.Ingress]*IngressCycleStat)}
	}
	b := e.samp
	b.classified, b.sketched = 0, 0
	b.depth4, b.depth6 = [33]int{}, [129]int{}
	clear(b.stats)
	var totalMass float64
	for _, rs := range e.idx.all {
		if rs.sketched {
			b.sketched++
		}
		if !sampling {
			continue
		}
		if rs.key.IsIPv6() {
			b.depth6[rs.key.Bits()]++
		} else {
			b.depth4[rs.key.Bits()]++
		}
		if rs.classified {
			b.classified++
			b.stat(rs.ingress).Ranges++
		}
		for _, x := range rs.counters {
			if x.n <= 0 {
				continue
			}
			b.stat(x.in).Samples += x.n
			totalMass += x.n
		}
	}
	b.ingress = b.ingress[:0]
	for _, st := range b.stats {
		if totalMass > 0 {
			st.Share = st.Samples / totalMass
		}
		b.ingress = append(b.ingress, *st)
	}
	sort.Slice(b.ingress, func(i, j int) bool {
		return lessIngress(b.ingress[i].Ingress, b.ingress[j].Ingress)
	})
}

// deliverCycleSample hands the sample takeCensus filled to Config.OnCycle
// under the reentrancy guard, and emits the returned alerts as journaled
// lifecycle events. Called from runCycle after the telemetry updates.
func (e *Engine) deliverCycleSample(now time.Time, dur time.Duration, before cycleCounters) {
	b := e.samp
	after := e.cycleCounters()
	s := CycleSample{
		Cycle:           e.cycleID,
		At:              now,
		Duration:        dur,
		Ranges:          e.idx.len(),
		Classified:      b.classified,
		IPStates:        e.ipCount,
		SketchedRanges:  b.sketched,
		Depth4:          b.depth4[:],
		Depth6:          b.depth6[:],
		Splits:          after.splits - before.splits,
		Joins:           after.joins - before.joins,
		Drops:           after.drops - before.drops,
		Classifications: after.classifications - before.classifications,
		Invalidations:   after.invalidations - before.invalidations,
		Expirations:     after.expirations - before.expirations,
		Compactions:     after.compactions - before.compactions,
		Ingress:         b.ingress,
	}
	if e.gov != nil {
		s.Governed = true
		s.Governor = e.gov.Snapshot()
	}

	e.emitting = true
	alerts := e.cfg.OnCycle(s)
	e.emitting = false

	for _, a := range alerts {
		kind := EventAlertCleared
		if a.Raise {
			kind = EventAlertRaised
		}
		e.emit(Event{Kind: kind, Prefix: a.Prefix, Ingress: a.Ingress, At: now,
			Reason: a.Reason, Detail: a.Kind.String()})
	}
}
