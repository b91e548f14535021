package core

import (
	"sync/atomic"
	"time"

	"ipd/internal/telemetry"
)

// engineMetrics is the registry-backed counter set behind Engine.Stats.
// All fields are embedded values so the stage-1 hot path touches one
// contiguous struct; Stats() and scrapes load the same atomics, so
// snapshots never contend with ingest (there is no stats mutex at all).
type engineMetrics struct {
	reg *telemetry.Registry

	records        telemetry.Counter
	recordsV6      telemetry.Counter
	recordsDropped telemetry.Counter
	bytes          telemetry.Counter

	cycles          telemetry.Counter
	splits          telemetry.Counter
	joins           telemetry.Counter
	drops           telemetry.Counter
	classifications telemetry.Counter
	invalidations   telemetry.Counter
	expirations     telemetry.Counter

	// Governed-path accounting: split deferrals (budget cap or degraded
	// state), emergency compactions, per-IP entries not created at the cap,
	// and panic containment.
	splitsDeferred  telemetry.Counter
	rangesCompacted telemetry.Counter
	ipStatesSkipped telemetry.Counter
	panicsRecovered telemetry.Counter
	quarantines     telemetry.Counter

	// Sketch-tier accounting (Config.Sketch): observations routed through
	// the shared sketch, exact→sketched and sketched→exact transitions,
	// first-seen timestamps recovered from the sketch at mint time, and
	// classifications decided on sketched evidence.
	sketchObserves        telemetry.Counter
	sketchDegrades        telemetry.Counter
	sketchHydrates        telemetry.Counter
	sketchFirstSeen       telemetry.Counter
	sketchClassifications telemetry.Counter

	activeRanges telemetry.Gauge
	ipStates     telemetry.Gauge
	sketchRanges telemetry.Gauge
	sketchBytes  telemetry.Gauge

	cycleDuration *telemetry.Histogram

	// lastCycleNanos backs both Stats.LastCycleDuration and the
	// ipd_last_cycle_duration_seconds gauge func.
	lastCycleNanos atomic.Int64
}

func newEngineMetrics() *engineMetrics {
	m := &engineMetrics{reg: telemetry.NewRegistry()}
	m.reg.RegisterCounter("ipd_records_total",
		"Flow records accepted by stage 1.", &m.records)
	m.reg.RegisterCounter("ipd_records_v6_total",
		"Accepted flow records with an IPv6 source.", &m.recordsV6)
	m.reg.RegisterCounter("ipd_records_dropped_total",
		"Flow records dropped for unusable addresses or timestamps.", &m.recordsDropped)
	m.reg.RegisterCounter("ipd_bytes_total",
		"Bytes carried by accepted flow records.", &m.bytes)
	m.reg.RegisterCounter("ipd_cycles_total",
		"Completed stage-2 cycles.", &m.cycles)
	m.reg.RegisterCounter("ipd_splits_total",
		"Range splits (mixed-ingress ranges subdivided).", &m.splits)
	m.reg.RegisterCounter("ipd_joins_total",
		"Range joins (classified sibling ranges merged into their parent).", &m.joins)
	m.reg.RegisterCounter("ipd_range_drops_total",
		"Empty sibling ranges collapsed into their parent (state cleanup).", &m.drops)
	m.reg.RegisterCounter("ipd_classifications_total",
		"Ranges classified to a prevalent ingress.", &m.classifications)
	m.reg.RegisterCounter("ipd_invalidations_total",
		"Classified ranges dropped after losing their prevalent ingress.", &m.invalidations)
	m.reg.RegisterCounter("ipd_expirations_total",
		"Classified ranges expired by idle decay.", &m.expirations)
	m.reg.RegisterCounter("ipd_splits_deferred_total",
		"Range splits deferred by the resource governor (budget cap reached or degraded state).", &m.splitsDeferred)
	m.reg.RegisterCounter("ipd_ranges_compacted_total",
		"Sibling pairs force-merged by emergency compaction.", &m.rangesCompacted)
	m.reg.RegisterCounter("ipd_ip_states_skipped_total",
		"Per-IP state entries not created because the MaxIPStates budget was reached.", &m.ipStatesSkipped)
	m.reg.RegisterCounter("ipd_cycle_panics_recovered_total",
		"Panics recovered during per-range stage-2 processing.", &m.panicsRecovered)
	m.reg.RegisterCounter("ipd_ranges_quarantined_total",
		"Ranges reset and quarantined after a contained stage-2 panic.", &m.quarantines)
	m.reg.RegisterCounter("ipd_sketch_observes_total",
		"Observations routed through the fixed-memory sketch tier (sketched ranges plus cap-refused sources).", &m.sketchObserves)
	m.reg.RegisterCounter("ipd_sketch_degrades_total",
		"Unclassified ranges degraded from exact per-IP state to the sketch tier.", &m.sketchDegrades)
	m.reg.RegisterCounter("ipd_sketch_hydrates_total",
		"Sketched ranges hydrated back to exact per-IP state.", &m.sketchHydrates)
	m.reg.RegisterCounter("ipd_sketch_first_seen_recovered_total",
		"Per-IP entries minted with a first-seen timestamp recovered from the sketch window.", &m.sketchFirstSeen)
	m.reg.RegisterCounter("ipd_sketch_classifications_total",
		"Ranges classified on sketched evidence (events carry the ε/δ bound).", &m.sketchClassifications)
	m.reg.RegisterGauge("ipd_sketch_ranges",
		"Unclassified ranges currently in sketched mode.", &m.sketchRanges)
	m.reg.RegisterGauge("ipd_sketch_bytes",
		"Heap footprint of the shared sketch (fixed by configuration, not by source count).", &m.sketchBytes)
	m.reg.RegisterGauge("ipd_active_ranges",
		"Active IPD ranges after the last stage-2 cycle (Appendix A memory proxy).", &m.activeRanges)
	m.reg.RegisterGauge("ipd_ip_states",
		"Per-masked-IP state entries held in unclassified ranges.", &m.ipStates)
	m.cycleDuration = m.reg.Histogram("ipd_cycle_duration_seconds",
		"Stage-2 cycle wall-clock runtime (Appendix A runtime metric).",
		telemetry.DurationBuckets())
	m.reg.GaugeFunc("ipd_last_cycle_duration_seconds",
		"Wall-clock runtime of the most recent stage-2 cycle.", func() float64 {
			return float64(m.lastCycleNanos.Load()) / 1e9
		})
	return m
}

// snapshot builds the legacy Stats view from the registry atomics.
func (m *engineMetrics) snapshot() Stats {
	records := m.records.Value()
	return Stats{
		Records:        records,
		RecordsV6:      m.recordsV6.Value(),
		RecordsDropped: m.recordsDropped.Value(),
		// Flow counting is per accepted record, so FlowsTotal tracks
		// Records exactly; it stays a distinct field because byte counting
		// may diverge in a future sampler-aware mode.
		FlowsTotal:        records,
		BytesTotal:        m.bytes.Value(),
		Cycles:            m.cycles.Value(),
		Splits:            m.splits.Value(),
		Joins:             m.joins.Value(),
		Drops:             m.drops.Value(),
		Classifications:   m.classifications.Value(),
		Invalidations:     m.invalidations.Value(),
		Expirations:       m.expirations.Value(),
		LastCycleRanges:   int(m.activeRanges.Value()),
		LastCycleDuration: time.Duration(m.lastCycleNanos.Load()),
	}
}
