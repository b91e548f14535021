package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/netip"
	"sort"
	"time"

	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/netaddr"
	"ipd/internal/sketch"
	"ipd/internal/telemetry"
	"ipd/internal/trace"
)

// ipState is the per-masked-IP sample state kept inside *unclassified*
// ranges. It is what allows a split to redistribute samples exactly and the
// expiry step to remove source-IP information older than e (§3.2: "the
// state of each (masked) IP must be held for each range until
// reclassified").
type ipState struct {
	// counters starts out over buf: most sources only ever vote for one or
	// two ingresses, so minting one is a single allocation, and only a source
	// seen at a third ingress spills to the heap.
	counters votes
	buf      [2]vote
	total    float64
	lastSeen time.Time
	// firstSeen is when this masked source first contributed — the anchor
	// for stattime binning. When the MaxIPStates cap refused the source
	// earlier, minting recovers a coarse first-seen from the sketch window
	// instead of restarting aging from the mint time.
	firstSeen time.Time
}

// rangeState is one active IPD range. Active ranges always partition the
// address space of their family. key caches the prefix in integer form (start
// address, length, family) for the partition index.
type rangeState struct {
	prefix netip.Prefix
	key    netaddr.Key

	classified   bool
	ingress      flow.Ingress
	classifiedAt time.Time

	// counters hold per-(logical-)ingress sample counts; total is their
	// sum. For classified ranges this is all that remains (plus lastSeen).
	counters votes
	total    float64
	lastSeen time.Time

	// ips is per-masked-IP state; nil for classified ranges (and for
	// sketched ranges, whose per-source evidence lives in the engine's
	// shared sketch instead).
	ips map[netaddr.Key]*ipState

	// sketched marks the range as running in the fixed-memory degradation
	// tier (Config.Sketch): stage 1 routes its per-source evidence through
	// the engine's shared sketch, and ring holds the exact per-ingress vote
	// mass of the last few cycles so expiry is a generation subtraction
	// instead of a per-source walk. sketchCalm counts consecutive
	// hydration-eligible cycles toward the hysteresis hold.
	sketched   bool
	sketchCalm int
	ring       *voteRing

	// classifiedSketched records that the current classification was
	// decided on sketched evidence; classify/join events and Explain carry
	// the sketch's ε/δ bound while it is set.
	classifiedSketched bool

	// bornAt is when this range (or its current empty incarnation) was
	// created; empty sibling pairs are only collapsed after they have been
	// empty-idle for E, which prevents a split/join oscillation.
	bornAt time.Time

	// byteTotal tracks bytes regardless of the counting mode, for the
	// flow/byte-count correlation study.
	byteTotal float64

	// quarantinedUntil is the last cycle id for which stage-2 skips this
	// range after a contained panic (0 = not quarantined). Transient
	// operational state: deliberately absent from checkpoints, so a restore
	// re-admits the range.
	quarantinedUntil uint64
}

func newRangeState(k netaddr.Key) *rangeState {
	return &rangeState{
		prefix: k.Prefix(),
		key:    k,
		ips:    make(map[netaddr.Key]*ipState),
	}
}

// newIPState mints the per-source state, first seen at ts.
func newIPState(ts time.Time) *ipState {
	st := &ipState{firstSeen: ts}
	st.counters = st.buf[:0]
	return st
}

// top returns the ingress with the highest counter and its share of the
// total. Ties break deterministically toward the lowest (router, iface).
func (rs *rangeState) top() (flow.Ingress, float64) {
	best, bestC := rs.counters.top()
	if rs.total <= 0 || bestC <= 0 {
		return best, 0
	}
	return best, bestC / rs.total
}

func lessIngress(a, b flow.Ingress) bool { return ingressKey(a) < ingressKey(b) }

// Stats are cumulative engine counters; they back the §5.7 resource
// discussion and the Appendix A resource metric. Since the telemetry
// refactor this struct is a point-in-time view assembled from the engine's
// registry atomics — see Engine.Telemetry for the live metrics.
type Stats struct {
	// Records is the number of accepted flow records; RecordsV6 the IPv6
	// subset. RecordsDropped counts records with unusable addresses.
	Records        uint64
	RecordsV6      uint64
	RecordsDropped uint64
	// FlowsTotal / BytesTotal accumulate the two candidate counter bases.
	FlowsTotal uint64
	BytesTotal uint64
	// Stage-2 lifecycle counters. Joins counts classified sibling merges;
	// Drops counts empty-sibling collapses (state cleanup).
	Cycles          uint64
	Splits          uint64
	Joins           uint64
	Drops           uint64
	Classifications uint64
	Invalidations   uint64
	Expirations     uint64
	// LastCycleRanges is the number of active ranges after the last cycle;
	// LastCycleDuration its wall-clock runtime (the benchmark's cycle
	// times).
	LastCycleRanges   int
	LastCycleDuration time.Duration
}

// Engine is a deterministic, virtual-time IPD instance. It is not safe for
// concurrent use; Server wraps it with the paper's two-thread structure.
type Engine struct {
	cfg    Config
	mapper IngressMapper

	// idx is the active partition: both families' ranges in address order.
	idx *rangeIndex

	now       time.Time // statistical time = max accepted timestamp
	lastCycle time.Time // start of the current cycle window
	started   bool

	// seq numbers every emitted lifecycle event (monotonic from 1);
	// cycleID is the id of the stage-2 cycle currently running (events
	// carry it so a journal can attribute decisions to cycles). emitting
	// guards the Config.OnEvent reentrancy contract: it is set for the
	// duration of the callback and the mutating entry points panic when
	// they observe it.
	seq      uint64
	cycleID  uint64
	emitting bool

	// tel holds all cumulative counters as registry-backed atomics; the
	// engine itself stays single-writer, but concurrent readers (Server
	// snapshots, /metrics scrapes) load these without any lock.
	tel *engineMetrics

	// tracer records per-phase cycle spans and sampled Observe spans into
	// the flight recorder; nil disables tracing at one nil check per call.
	tracer *trace.Tracer

	// beforeCycle, when non-nil, runs first in every stage-2 cycle with the
	// cycle's statistical time (Server.SetCycleHook).
	beforeCycle func(at time.Time)

	// ipCount is the live per-masked-IP entry population across all
	// unclassified ranges, maintained at every mutation site so budget
	// checks and gauges never walk the partition.
	ipCount int

	// gov is the attached resource governor (Config.Governor); nil runs
	// ungoverned.
	gov *governor.Governor

	// sk is the shared fixed-memory sketch behind sketched ranges and the
	// cap-refused first-seen preservation; nil unless Config.Sketch. One
	// instance serves every range: active ranges partition the address
	// space, so masked-source keys never collide across ranges.
	sk *sketch.Sketch

	// hydroBudget is the per-cycle headroom for sketched→exact hydration:
	// each hydrating range spends its retained vote mass (a conservative
	// stand-in for the per-IP entries its traffic will re-mint) from this
	// budget, so a calm governor cannot release every sketched range at
	// once and slam the MaxIPStates cap it just recovered from. Reset at
	// the top of every cycle; +Inf when ungoverned or uncapped.
	hydroBudget float64

	log *slog.Logger
	// churn accumulates per-ingress classification churn within one cycle;
	// non-nil only while a cycle runs with logging enabled.
	churn map[flow.Ingress]int

	// samp holds the reusable buffers behind Config.OnCycle samples;
	// lazily built on the first sampled cycle.
	samp *sampleBufs

	// classified and unclassified are the snapshot phase's lists, reused
	// across cycles and cleared after use so they keep no range alive.
	classified, unclassified []*rangeState
}

// NewEngine validates cfg and returns an engine with the two /0 root ranges
// active.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    cfg,
		mapper: cfg.mapper(),
		tel:    newEngineMetrics(),
		gov:    cfg.Governor,
		log:    cfg.Logger,
	}
	if cfg.Sketch {
		sk, err := sketch.New(cfg.sketchConfig())
		if err != nil {
			return nil, err
		}
		e.sk = sk
	}
	root4, _ := netaddr.KeyFromAddr(netip.IPv4Unspecified(), 0)
	root6, _ := netaddr.KeyFromAddr(netip.IPv6Unspecified(), 0)
	e.idx = &rangeIndex{all: []*rangeState{newRangeState(root4), newRangeState(root6)}}
	e.idx.rekey()
	e.emit(Event{Kind: EventCreated, Prefix: root4.String(), Reason: Reason{Code: ReasonRoot}})
	e.emit(Event{Kind: EventCreated, Prefix: root6.String(), Reason: Reason{Code: ReasonRoot}})
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetTracer attaches a pipeline tracer (nil detaches). Call during setup,
// before the first Feed/Observe.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// Stats returns a snapshot of the cumulative counters, assembled from the
// telemetry registry's atomics (safe to call concurrently with ingest).
func (e *Engine) Stats() Stats { return e.tel.snapshot() }

// Telemetry returns the engine's metric registry: every counter, gauge, and
// histogram the engine maintains, ready for Prometheus or JSON exposition.
// The registry is safe for concurrent use.
func (e *Engine) Telemetry() *telemetry.Registry { return e.tel.reg }

// Now returns the engine's statistical time.
func (e *Engine) Now() time.Time { return e.now }

// RangeCount returns the number of active ranges (the appendix's memory
// proxy: state is linear in active ranges plus per-IP entries).
func (e *Engine) RangeCount() int { return e.idx.len() }

// IPStateCount returns the total number of per-IP entries held in
// unclassified ranges. The count is maintained live at every mutation site
// (O(1)).
func (e *Engine) IPStateCount() int { return e.ipCount }

// SketchStatus is the introspection view of the fixed-memory sketch tier
// (Config.Sketch), served at /ipd/sketch.
type SketchStatus struct {
	// Enabled reports whether the tier is configured at all; the remaining
	// fields are zero when it is not.
	Enabled bool `json:"enabled"`
	// Width/Depth/Generations/Seed are the effective sketch sizing, and
	// Epsilon/Delta the resulting accuracy bound: per-source estimates are
	// within Epsilon of the window mass with probability 1−Delta.
	Width       int     `json:"width,omitempty"`
	Depth       int     `json:"depth,omitempty"`
	Generations int     `json:"generations,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	Delta       float64 `json:"delta,omitempty"`
	// Bytes is the sketch's heap footprint — fixed by the configuration,
	// which is the whole point. Observes counts lifetime observations
	// routed through the sketch.
	Bytes    int    `json:"bytes"`
	Observes uint64 `json:"observes"`
	// SketchedRanges is the number of unclassified ranges currently in
	// sketched mode (as of the last cycle); the counters below accumulate
	// mode transitions, first-seen recoveries at mint time, and
	// classifications decided on sketched evidence.
	SketchedRanges          int    `json:"sketched_ranges"`
	Degrades                uint64 `json:"degrades"`
	Hydrates                uint64 `json:"hydrates"`
	FirstSeenRecovered      uint64 `json:"first_seen_recovered"`
	SketchedClassifications uint64 `json:"sketched_classifications"`
}

// SketchStatus reports the sketch tier's configuration, accuracy bound, and
// live accounting. Safe to call concurrently with ingest: everything reads
// registry atomics or the immutable configuration except Bytes/Observes,
// which wrappers (Server) serialize with the ingest lock.
func (e *Engine) SketchStatus() SketchStatus {
	if e.sk == nil {
		return SketchStatus{}
	}
	cfg := e.sk.Config()
	return SketchStatus{
		Enabled:                 true,
		Width:                   cfg.Width,
		Depth:                   cfg.Depth,
		Generations:             cfg.Generations,
		Seed:                    cfg.Seed,
		Epsilon:                 cfg.Epsilon(),
		Delta:                   cfg.Delta(),
		Bytes:                   e.sk.Bytes(),
		Observes:                e.sk.Observes(),
		SketchedRanges:          int(e.tel.sketchRanges.Value()),
		Degrades:                e.tel.sketchDegrades.Value(),
		Hydrates:                e.tel.sketchHydrates.Value(),
		FirstSeenRecovered:      e.tel.sketchFirstSeen.Value(),
		SketchedClassifications: e.tel.sketchClassifications.Value(),
	}
}

// Observe ingests one flow record (stage 1). Records should already have
// passed statistical-time cleaning; wildly out-of-order input degrades
// expiry precision but nothing else.
func (e *Engine) Observe(rec flow.Record) { e.ObserveBatch([]flow.Record{rec}) }

// ObserveBatch is Observe over a slice, in order: one reentrancy check and
// one update of the record and byte counters for the whole batch (a
// statistical-time bucket, in the Server).
func (e *Engine) ObserveBatch(recs []flow.Record) {
	e.guardReentry()
	var t observed
	for i := range recs {
		e.observe(&recs[i], &t)
	}
	e.tel.records.Add(t.records)
	if t.v6 != 0 {
		e.tel.recordsV6.Add(t.v6)
	}
	e.tel.bytes.Add(t.bytes)
}

// observed tallies what a run of observe calls ingested.
type observed struct{ records, v6, bytes uint64 }

// observe is stage 1 for one record; ingested records are counted into t.
func (e *Engine) observe(rec *flow.Record, t *observed) {
	if e.tracer.Sample() {
		defer e.tracer.Begin(trace.PhaseObserve, e.cycleID).End(0)
	}
	if !rec.Src.IsValid() || rec.Ts.IsZero() { // Record.Valid, without copying the record
		e.tel.recordsDropped.Inc()
		return
	}
	// k is the source masked to cidr_max, as integers: both the address the
	// partition is searched for and the per-IP key.
	src := rec.Src.Unmap()
	v6 := !src.Is4()
	k, ok := netaddr.KeyFromAddr(src, e.cfg.cidrMax(v6))
	if !ok {
		e.tel.recordsDropped.Inc()
		return
	}
	rs := e.idx.lookup(k)
	logical := e.mapper.Logical(rec.In)
	w := 1.0
	if e.cfg.CountBytes {
		w = float64(rec.Bytes)
		if w <= 0 {
			w = 1
		}
	}
	rs.total += w
	rs.counters.add(logical, w)
	rs.byteTotal += float64(rec.Bytes)
	if rec.Ts.After(rs.lastSeen) {
		rs.lastSeen = rec.Ts
	}
	if !rs.classified {
		if rs.sketched {
			// Fixed-memory tier: the shared sketch absorbs the per-source
			// evidence and the vote ring keeps the per-ingress tally of
			// this generation, so the flood cannot mint state.
			if e.sk != nil {
				e.sk.Observe(k.Prefix(), w, rec.Ts)
				e.tel.sketchObserves.Inc()
			}
			if rs.ring != nil {
				rs.ring.observe(logical, w)
			}
		} else {
			st := rs.ips[k]
			if st == nil {
				if e.cfg.MaxIPStates > 0 && e.ipCount >= e.cfg.MaxIPStates {
					// Per-IP budget exhausted: keep counting the range-level
					// votes (above) but do not mint new per-IP entries, so an
					// address scan cannot grow this state without bound.
					e.tel.ipStatesSkipped.Inc()
					if e.sk != nil {
						// Remember the refused source in the sketch so a
						// later mint recovers its coarse first-seen instead
						// of restarting its aging from zero.
						e.sk.Observe(k.Prefix(), w, rec.Ts)
						e.tel.sketchObserves.Inc()
					}
				} else {
					st = newIPState(rec.Ts)
					if e.sk != nil {
						if fs, ok := e.sk.FirstSeen(k.Prefix()); ok && fs.Before(st.firstSeen) {
							st.firstSeen = fs
							e.tel.sketchFirstSeen.Inc()
						}
					}
					rs.ips[k] = st
					e.ipCount++
				}
			}
			if st != nil {
				st.total += w
				st.counters.add(logical, w)
				if rec.Ts.After(st.lastSeen) {
					st.lastSeen = rec.Ts
				}
			}
		}
	}
	t.records++
	if v6 {
		t.v6++
	}
	t.bytes += uint64(rec.Bytes)
	if rec.Ts.After(e.now) {
		e.now = rec.Ts
	}
	if !e.started {
		e.started = true
		e.lastCycle = rec.Ts.Truncate(e.cfg.T)
	}
}

// AdvanceTo moves statistical time forward to ts, running one stage-2 cycle
// per elapsed T boundary (so a long gap runs the intermediate decay cycles
// it should).
func (e *Engine) AdvanceTo(ts time.Time) {
	e.guardReentry()
	if !e.started {
		return
	}
	if ts.After(e.now) {
		e.now = ts
	}
	for next := e.lastCycle.Add(e.cfg.T); !next.After(e.now); next = e.lastCycle.Add(e.cfg.T) {
		e.runCycle(next)
		e.lastCycle = next
	}
}

// ForceCycle runs a stage-2 cycle immediately at the engine's current
// statistical time (used by tests and by end-of-trace flushes).
func (e *Engine) ForceCycle() {
	e.guardReentry()
	if !e.started {
		return
	}
	e.runCycle(e.now)
}

// noteChurn records per-ingress classification churn for the cycle log;
// a no-op unless the current cycle runs with logging enabled.
func (e *Engine) noteChurn(in flow.Ingress) {
	if e.churn != nil {
		e.churn[in]++
	}
}

// emit stamps ev with the next sequence number and the running cycle id and
// delivers it to Config.OnEvent. The emitting flag enforces the reentrancy
// contract documented on Config.OnEvent.
func (e *Engine) emit(ev Event) {
	if e.cfg.OnEvent == nil {
		return
	}
	e.seq++
	ev.Seq = e.seq
	ev.Cycle = e.cycleID
	e.emitting = true
	defer func() { e.emitting = false }()
	e.cfg.OnEvent(ev)
}

// guardReentry panics when called from inside a Config.OnEvent callback; the
// mutating entry points call it first so a callback that tries to drive the
// engine fails loudly instead of corrupting the partition.
func (e *Engine) guardReentry() {
	if e.emitting {
		panic("core: Config.OnEvent callback must not call back into the Engine (see the Config.OnEvent reentrancy contract)")
	}
}

// runCycle is stage 2 (Algorithm 1 lines 5-19), structured as six traced
// phases: snapshot, decay, classify, split, join, drop. The phase order is
// behaviour-preserving with respect to the former single loop: each range's
// per-cycle processing touches only its own state, classification decisions
// are taken against the snapshot-time partition (a range decayed to
// unclassified this cycle is not reclassified until the next), and the two
// merge categories of the former unified join pass cannot enable each other
// within one cycle (an empty collapse bears bornAt=now, a classified merge
// yields a classified parent).
func (e *Engine) runCycle(now time.Time) {
	if e.beforeCycle != nil {
		e.beforeCycle(now)
	}
	start := time.Now()
	e.cycleID++
	cycleStart := now.Add(-e.cfg.T)
	cycleSpan := e.tracer.Begin(trace.PhaseCycle, e.cycleID)

	if e.sk != nil {
		// One sketch generation per cycle: the window then spans
		// Generations·T ≥ E, the exact per-IP expiry horizon.
		e.sk.Rotate(now)
	}
	e.hydroBudget = math.Inf(1)
	if e.sk != nil && e.gov != nil {
		if gcfg := e.gov.Config(); gcfg.MaxIPStates > 0 {
			e.hydroBudget = governor.RecoverFraction*float64(gcfg.MaxIPStates) - float64(e.ipCount)
		}
	}

	logging := e.log != nil && e.log.Enabled(context.Background(), slog.LevelInfo)
	sampling := e.cfg.OnCycle != nil
	rangesBefore := e.idx.len()
	var before cycleCounters
	if logging || sampling {
		before = e.cycleCounters()
	}
	if logging {
		e.churn = make(map[flow.Ingress]int)
	}

	// Snapshot: sort the active set, in address order, into classified and
	// unclassified once; the decision is fixed here so a range expired by
	// the decay phase is not also classified this cycle.
	span := e.tracer.Begin(trace.PhaseSnapshot, e.cycleID)
	classified, unclassified := e.classified[:0], e.unclassified[:0]
	for _, rs := range e.idx.all {
		if rs.classified {
			classified = append(classified, rs)
		} else {
			unclassified = append(unclassified, rs)
		}
	}
	span.End(len(classified) + len(unclassified))

	// Decay: idle-decay, expire, and invalidate classified ranges. Each
	// range's processing runs under panic containment: a panic resets and
	// quarantines that range, and the cycle keeps going.
	span = e.tracer.Begin(trace.PhaseDecay, e.cycleID)
	for _, rs := range classified {
		if rs.quarantinedUntil >= e.cycleID {
			continue
		}
		e.contained(rs, now, func() { e.cycleClassified(rs, now, cycleStart) })
	}
	span.End(len(classified))

	// Classify: expire per-IP state and classify unclassified ranges,
	// collecting split decisions for the next phase.
	span = e.tracer.Begin(trace.PhaseClassify, e.cycleID)
	var splits []pendingSplit
	for _, rs := range unclassified {
		if rs.quarantinedUntil >= e.cycleID {
			continue
		}
		rs := rs
		e.contained(rs, now, func() {
			if ps, ok := e.cycleUnclassified(rs, now); ok {
				splits = append(splits, ps)
			}
		})
	}
	span.End(len(unclassified))
	clear(classified)
	clear(unclassified)
	e.classified, e.unclassified = classified, unclassified

	// Split: apply the collected splits in one rewrite of the partition.
	span = e.tracer.Begin(trace.PhaseSplit, e.cycleID)
	e.applySplits(splits, now)
	span.End(len(splits))

	// Join: merge agreeing classified sibling pairs bottom-up.
	span = e.tracer.Begin(trace.PhaseJoin, e.cycleID)
	joins := e.mergePass(now, false)
	span.End(joins)

	// Drop: collapse empty-idle sibling pairs (state cleanup).
	span = e.tracer.Begin(trace.PhaseDrop, e.cycleID)
	drops := e.mergePass(now, true)
	span.End(drops)

	// Govern: evaluate the resource budgets against the post-cycle state
	// and run the emergency compaction pass when one is breached.
	if e.gov != nil {
		span = e.tracer.Begin(trace.PhaseGovern, e.cycleID)
		span.End(e.govern(now))
	}

	// One pass over the final partition serves both the sketch gauge and
	// the cycle sample.
	if sampling || e.sk != nil {
		e.takeCensus(sampling)
	}
	if e.sk != nil {
		e.tel.sketchRanges.Set(int64(e.samp.sketched))
		e.tel.sketchBytes.Set(int64(e.sk.Bytes()))
	}

	dur := time.Since(start)
	e.tel.cycles.Inc()
	e.tel.activeRanges.Set(int64(e.idx.len()))
	e.tel.ipStates.Set(int64(e.IPStateCount()))
	e.tel.cycleDuration.Observe(dur.Seconds())
	e.tel.lastCycleNanos.Store(int64(dur))

	if logging {
		e.logCycle(now, dur, rangesBefore, before)
		e.churn = nil
	}
	if sampling {
		e.deliverCycleSample(now, dur, before)
	}
	cycleSpan.End(e.idx.len())
}

// cycleCounters is the subset of counters whose per-cycle deltas the
// structured cycle log and the Config.OnCycle sample report.
type cycleCounters struct {
	splits, joins, drops, classifications, invalidations, expirations, compactions uint64
}

func (e *Engine) cycleCounters() cycleCounters {
	return cycleCounters{
		splits:          e.tel.splits.Value(),
		joins:           e.tel.joins.Value(),
		drops:           e.tel.drops.Value(),
		classifications: e.tel.classifications.Value(),
		invalidations:   e.tel.invalidations.Value(),
		expirations:     e.tel.expirations.Value(),
		compactions:     e.tel.rangesCompacted.Value(),
	}
}

// logCycle emits one structured log line per stage-2 cycle: cycle number,
// wall-clock duration, range delta, lifecycle deltas, and the ingress with
// the most classification churn this cycle.
func (e *Engine) logCycle(now time.Time, dur time.Duration, rangesBefore int, before cycleCounters) {
	after := e.cycleCounters()
	var (
		top      flow.Ingress
		topChurn int
	)
	for in, n := range e.churn {
		if n > topChurn || (n == topChurn && topChurn > 0 && lessIngress(in, top)) {
			top, topChurn = in, n
		}
	}
	attrs := []slog.Attr{
		slog.Uint64("cycle", e.tel.cycles.Value()),
		slog.Time("stat_time", now),
		slog.Duration("duration", dur),
		slog.Int("ranges", e.idx.len()),
		slog.Int("range_delta", e.idx.len()-rangesBefore),
		slog.Int("ip_states", int(e.tel.ipStates.Value())),
		slog.Uint64("splits", after.splits-before.splits),
		slog.Uint64("joins", after.joins-before.joins),
		slog.Uint64("classified", after.classifications-before.classifications),
		slog.Uint64("invalidated", after.invalidations-before.invalidations),
		slog.Uint64("expired", after.expirations-before.expirations),
	}
	if topChurn > 0 {
		attrs = append(attrs,
			slog.String("top_ingress", top.String()),
			slog.Int("top_ingress_churn", topChurn))
	}
	e.log.LogAttrs(context.Background(), slog.LevelInfo, "cycle", attrs...)
}

// cycleClassified handles lines 16-19: decay idle ranges, drop expired or
// invalidated classifications.
func (e *Engine) cycleClassified(rs *rangeState, now, cycleStart time.Time) {
	if rs.lastSeen.Before(cycleStart) {
		// No traffic during the past cycle: decay.
		d := e.cfg.decay(now.Sub(rs.lastSeen))
		rs.counters.scale(d)
		rs.total *= d
		// The cumulative decay product shrinks roughly like (idle
		// cycles)^-0.9, so small ranges vanish within minutes of going
		// quiet while heavy ranges linger proportionally longer — the
		// §3.2 intent ("ranges are quickly removed from classification
		// when no new traffic is received") without dropping a range
		// that merely skipped one minute.
		if rs.total < 1 {
			e.tel.expirations.Inc()
			e.noteChurn(rs.ingress)
			e.emit(Event{Kind: EventExpired, Prefix: rs.prefix.String(), Ingress: rs.ingress, At: now,
				Reason: Reason{Code: ReasonDecayedOut, Observed: rs.total, Threshold: 1}})
			e.unclassify(rs, now)
			return
		}
	}
	if c := rs.counters.get(rs.ingress); rs.total > 0 && c/rs.total < e.cfg.Q {
		// Prevalent ingress no longer valid: drop the range (line 19).
		e.tel.invalidations.Inc()
		e.noteChurn(rs.ingress)
		e.emit(Event{Kind: EventInvalidated, Prefix: rs.prefix.String(), Ingress: rs.ingress, At: now,
			Reason: Reason{Code: ReasonShareBelowQ, Observed: c / rs.total, Threshold: e.cfg.Q, Samples: rs.total}})
		e.unclassify(rs, now)
	}
}

// unclassify resets a range to empty unclassified state. Fresh traffic
// rebuilds it; the join pass collapses empty sibling pairs upward.
func (e *Engine) unclassify(rs *rangeState, now time.Time) {
	e.ipCount -= len(rs.ips)
	rs.classified = false
	rs.ingress = flow.Ingress{}
	rs.classifiedAt = time.Time{}
	rs.counters = nil
	rs.total = 0
	rs.byteTotal = 0
	rs.ips = make(map[netaddr.Key]*ipState)
	rs.bornAt = now
	rs.sketched = false
	rs.sketchCalm = 0
	rs.ring = nil
	rs.classifiedSketched = false
}

// pendingSplit is a split decision taken during the classify phase and
// applied in the split phase, together with the observed top-ingress share
// and sample threshold that justified it (for the event reason).
type pendingSplit struct {
	rs           *rangeState
	share, ncidr float64
}

// cycleUnclassified handles lines 7-15: expiry and classification. A mixed
// range below cidr_max is returned as a pending split rather than split
// inline, so the split phase can apply (and account) all of a cycle's splits
// together.
func (e *Engine) cycleUnclassified(rs *rangeState, now time.Time) (pendingSplit, bool) {
	if rs.sketched {
		// Sketched expiry: subtract the vote generation that just left the
		// retained window — O(ingresses) instead of a per-source walk.
		// Votes age out by contribution time rather than source idleness;
		// DESIGN §13 quantifies the difference.
		e.expireSketchedVotes(rs)
	} else {
		// Remove source-IP information older than E.
		cutoff := now.Add(-e.cfg.E)
		for k, st := range rs.ips {
			if st.lastSeen.Before(cutoff) {
				for _, x := range st.counters {
					rs.counters.sub(x.in, x.n)
				}
				rs.total -= st.total
				delete(rs.ips, k)
				e.ipCount--
			}
		}
	}
	if rs.total < 0 {
		rs.total = 0
	}

	ncidr := e.cfg.NCidr(rs.key.Bits(), rs.key.IsIPv6())
	in, share := rs.top()
	e.updateStateMode(rs, now, share, ncidr)

	if rs.total < ncidr {
		return pendingSplit{}, false // not enough samples yet (line 8)
	}
	if share >= e.cfg.Q {
		// Single ingress prevalent: classify (lines 9-10) and drop all
		// per-IP state (§3.2 "once a prevalent ingress is found, all
		// state is removed").
		wasSketched := rs.sketched
		rs.classified = true
		rs.ingress = in
		rs.classifiedAt = now
		e.ipCount -= len(rs.ips)
		rs.ips = nil
		rs.ring = nil
		rs.sketched = false
		rs.sketchCalm = 0
		rs.classifiedSketched = wasSketched
		e.tel.classifications.Inc()
		if wasSketched {
			e.tel.sketchClassifications.Inc()
		}
		e.noteChurn(in)
		e.emit(Event{Kind: EventClassified, Prefix: rs.prefix.String(), Ingress: in, At: now,
			Reason: Reason{Code: ReasonPrevalentIngress, Observed: share, Threshold: e.cfg.Q,
				Samples: rs.total, MinSamples: ncidr},
			Coverage: e.coverageAnnotation(in),
			Sketch:   e.sketchAnnotation(wasSketched)})
		return pendingSplit{}, false
	}
	if rs.key.Bits() < e.cfg.cidrMax(rs.key.IsIPv6()) {
		return pendingSplit{rs: rs, share: share, ncidr: ncidr}, true
	}
	// At cidr_max with mixed ingress: keep monitoring (the join pass is
	// what "try to join", line 15, can still do for such ranges' parents).
	return pendingSplit{}, false
}

// expireSketchedVotes rotates the range's vote ring and subtracts the
// expired generation's tally from the range counters — the sketched analogue
// of the exact per-IP expiry walk.
func (e *Engine) expireSketchedVotes(rs *rangeState) {
	if rs.ring == nil {
		return
	}
	expired, total := rs.ring.rotate()
	for _, x := range expired {
		rs.counters.sub(x.in, x.n)
	}
	rs.total -= total
}

// updateStateMode is the per-cycle exact↔sketched hysteresis for one
// unclassified range. Exact ranges degrade immediately when the governor is
// under pressure and the range sits more than the exact margin below the
// classification threshold; sketched ranges hydrate back only after
// sketchHoldCycles consecutive eligible cycles, so the boundary cannot
// flap. A range about to classify this cycle is left sketched so the
// decision carries its ε/δ provenance.
func (e *Engine) updateStateMode(rs *rangeState, now time.Time, share, ncidr float64) {
	if e.sk == nil {
		if rs.sketched {
			// Restored from a sketched checkpoint into an engine running
			// without the sketch tier: hydrate immediately.
			e.hydrate(rs, now, share)
		}
		return
	}
	boundary := e.cfg.Q - ExactMargin
	govNormal := e.gov == nil || e.gov.State() == governor.StateNormal
	if !rs.sketched {
		if !govNormal && share < boundary {
			e.degrade(rs, now, share)
		}
		return
	}
	if govNormal || share >= boundary {
		rs.sketchCalm++
		classifyImminent := share >= e.cfg.Q && rs.total >= ncidr
		// Budget-aware hydration: the range's retained vote mass
		// approximates the per-IP entries its traffic will re-mint, and
		// hydration spends it from the cycle's headroom. A range the budget
		// cannot absorb stays sketched with its calm streak intact, so it
		// hydrates as soon as headroom opens — gradually, instead of every
		// sketched range re-minting at once and re-breaching the cap.
		if rs.sketchCalm >= sketchHoldCycles && !classifyImminent && rs.total <= e.hydroBudget {
			e.hydroBudget -= rs.total
			e.hydrate(rs, now, share)
		}
	} else {
		rs.sketchCalm = 0
	}
}

// degrade folds a range's exact per-IP state into the shared sketch (so
// coarse first-seen and window mass survive) and a fresh vote ring (so the
// folded votes age out on the ring clock), then switches the range to
// sketched mode. Sorted iteration keeps the float sums deterministic.
func (e *Engine) degrade(rs *rangeState, now time.Time, share float64) {
	ring := newVoteRing(e.sk.Config().Generations)
	keys := make([]netaddr.Key, 0, len(rs.ips))
	for k := range rs.ips {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	for _, k := range keys {
		st := rs.ips[k]
		e.sk.Observe(k.Prefix(), st.total, st.lastSeen)
		for _, x := range st.counters {
			ring.observe(x.in, x.n)
		}
	}
	e.ipCount -= len(rs.ips)
	rs.ips = nil
	rs.ring = ring
	rs.sketched = true
	rs.sketchCalm = 0
	e.tel.sketchDegrades.Inc()
	e.emit(Event{Kind: EventStateMode, Prefix: rs.prefix.String(), At: now, Detail: StateModeSketched,
		Reason: Reason{Code: ReasonSketched, Observed: share,
			Threshold: e.cfg.Q - ExactMargin}})
}

// hydrate returns a sketched range to exact per-IP state. The vote mass
// retained in the counters carries forward (like cap-refused mass in exact
// mode, it only leaves via classify/unclassify); fresh traffic re-mints
// per-IP entries from here on.
func (e *Engine) hydrate(rs *rangeState, now time.Time, share float64) {
	held := rs.sketchCalm
	rs.sketched = false
	rs.sketchCalm = 0
	rs.ring = nil
	if rs.ips == nil {
		rs.ips = make(map[netaddr.Key]*ipState)
	}
	e.tel.sketchHydrates.Inc()
	e.emit(Event{Kind: EventStateMode, Prefix: rs.prefix.String(), At: now, Detail: StateModeExact,
		Reason: Reason{Code: ReasonSketched, Observed: share,
			Threshold: e.cfg.Q - ExactMargin, Samples: float64(held)}})
}

// sketchAnnotation builds the ε/δ provenance annotation attached to
// classify/join decisions taken on sketched evidence; nil otherwise.
func (e *Engine) sketchAnnotation(sketched bool) *Reason {
	if !sketched || e.sk == nil {
		return nil
	}
	cfg := e.sk.Config()
	return &Reason{Code: ReasonSketched, Observed: cfg.Epsilon(), Threshold: cfg.Delta()}
}

// coverageAnnotation asks Config.Coverage about the ingress deciding a
// classify/join and, when the feed is degraded, returns the provenance
// annotation attached to the event. Nil when no hook is set or the feed is
// healthy.
func (e *Engine) coverageAnnotation(in flow.Ingress) *Reason {
	if e.cfg.Coverage == nil {
		return nil
	}
	score, floor, degraded := e.cfg.Coverage(in)
	if !degraded {
		return nil
	}
	return &Reason{Code: ReasonDegradedCoverage, Observed: score, Threshold: floor}
}

// applySplits is the split phase: one rewrite of the partition in which every
// pending split (in address order, as the classify phase collected them)
// replaces its range by the two children, unless the governor is degraded
// (pause state growth) or the hard range budget is exhausted. Splits are the
// only way the active-range count grows, so gating them here, split by split,
// enforces Config.MaxRanges unconditionally.
func (e *Engine) applySplits(splits []pendingSplit, now time.Time) {
	if len(splits) == 0 {
		return
	}
	deferSplits := e.gov != nil && e.gov.State() != governor.StateNormal
	next, ranges := 0, e.idx.len()
	e.idx.rewrite(func(out []*rangeState, rs *rangeState) []*rangeState {
		if next == len(splits) || splits[next].rs != rs {
			return append(out, rs)
		}
		ps := splits[next]
		next++
		// Sketched ranges have no per-IP state to redistribute, so their
		// splits wait until they hydrate.
		if deferSplits || rs.sketched || (e.cfg.MaxRanges > 0 && ranges >= e.cfg.MaxRanges) {
			e.tel.splitsDeferred.Inc()
			return append(out, rs)
		}
		ranges++
		lo, hi := e.split(ps, now)
		return append(out, lo, hi)
	})
}

// split builds the two children of ps.rs (line 13), redistributing the
// per-IP state so no samples are lost; a pending split is always above
// cidr_max, so the children exist. The split decision's observed top-ingress
// share and sample threshold ride along in the event reason.
func (e *Engine) split(ps pendingSplit, now time.Time) (lo, hi *rangeState) {
	rs := ps.rs
	kl, kh, _ := rs.key.Children()
	cl, ch := newRangeState(kl), newRangeState(kh)
	cl.bornAt, ch.bornAt = now, now
	if e.cfg.KeepIPStateOnSplit {
		bit := rs.key.Bits()
		for k, st := range rs.ips {
			child := cl
			if k.Bit(bit) {
				child = ch
			}
			child.ips[k] = st
			child.total += st.total
			for _, x := range st.counters {
				child.counters.add(x.in, x.n)
			}
			if st.lastSeen.After(child.lastSeen) {
				child.lastSeen = st.lastSeen
			}
		}
	} else {
		// The children start empty; the parent's per-IP entries die with it.
		e.ipCount -= len(rs.ips)
	}
	e.tel.splits.Inc()
	e.emit(Event{Kind: EventSplit, Prefix: rs.prefix.String(), At: now,
		Reason: Reason{Code: ReasonMixedIngress, Observed: ps.share, Threshold: e.cfg.Q,
			Samples: rs.total, MinSamples: ps.ncidr},
		Children: []string{cl.prefix.String(), ch.prefix.String()}})
	return cl, ch
}

// mergeRec is one merge applied by mergePass, kept until the pass is over so
// its events go out in the specified order.
type mergeRec struct{ lo, hi, parent *rangeState }

// mergePass merges sibling ranges, one scan over adjacent sibling pairs per
// sweep, repeating until a fixpoint so merges cascade upward. With collapse
// false it performs classified joins, with collapse true empty collapses
// (see tryJoin). The two categories are separate traced phases; running them
// in sequence is equivalent to a unified pass because neither can enable the
// other within a cycle (a collapse's parent has bornAt=now, a join's parent
// is classified). Which merges apply does not depend on the scan order
// (merging one pair never disables another); their events go out after the
// fixpoint, deepest parent first, then IPv4 before IPv6, then by ascending
// address. Returns the number of merges.
func (e *Engine) mergePass(now time.Time, collapse bool) int {
	var merges []mergeRec
	for swept := 0; ; swept = len(merges) {
		e.idx.siblingPairs(func(i int, lo, hi *rangeState) {
			if parent := e.tryJoin(lo, hi, collapse, now); parent != nil {
				e.idx.join(i, parent)
				merges = append(merges, mergeRec{lo, hi, parent})
			}
		})
		if len(merges) == swept {
			break
		}
		e.idx.compact()
	}
	sort.Slice(merges, func(i, j int) bool {
		a, b := merges[i].parent.key, merges[j].parent.key
		if a.Bits() != b.Bits() {
			return a.Bits() > b.Bits()
		}
		return a.Less(b)
	})
	for _, m := range merges {
		children := []string{m.lo.prefix.String(), m.hi.prefix.String()}
		if collapse {
			e.tel.drops.Inc()
			idle := min(now.Sub(m.lo.bornAt), now.Sub(m.hi.bornAt))
			e.emit(Event{Kind: EventDropped, Prefix: m.parent.prefix.String(), At: now,
				Reason: Reason{Code: ReasonEmptyIdle, Observed: idle.Seconds(),
					Threshold: e.cfg.E.Seconds()},
				Children: children})
		} else {
			p := m.parent
			e.tel.joins.Inc()
			e.emit(Event{Kind: EventJoined, Prefix: p.prefix.String(), Ingress: p.ingress, At: now,
				Reason: Reason{Code: ReasonSiblingsAgree,
					Observed:  p.counters.get(p.ingress) / p.total,
					Threshold: e.cfg.Q, Samples: p.total,
					MinSamples: e.cfg.NCidr(p.key.Bits(), p.key.IsIPv6())},
				Children: children,
				Coverage: e.coverageAnnotation(p.ingress),
				Sketch:   e.sketchAnnotation(p.classifiedSketched)})
		}
	}
	return len(merges)
}

// tryJoin returns the merged parent range if lo and hi are mergeable in this
// phase, else nil. With collapse set that is the empty-sibling cleanup
// (EventDropped): two empty-idle unclassified siblings become an empty
// parent. Otherwise it is the classified merge (EventJoined): two classified
// siblings with the same ingress whose combined samples satisfy the parent's
// n_cidr become the classified parent.
func (e *Engine) tryJoin(lo, hi *rangeState, collapse bool, now time.Time) *rangeState {
	parent, _ := lo.key.Parent()
	if collapse {
		// Both empty and unclassified -> empty parent. Sketched siblings are
		// excluded: their vote rings may still hold in-window mass, and the
		// collapse would silently discard it. Fresh emptiness does not count;
		// a recent split is not undone.
		if lo.classified || hi.classified || lo.sketched || hi.sketched ||
			lo.total != 0 || hi.total != 0 || len(lo.ips) != 0 || len(hi.ips) != 0 ||
			now.Sub(lo.bornAt) < e.cfg.E || now.Sub(hi.bornAt) < e.cfg.E {
			return nil
		}
		m := newRangeState(parent)
		m.bornAt = now
		return m
	}
	if !lo.classified || !hi.classified || lo.ingress != hi.ingress ||
		lo.total+hi.total < e.cfg.NCidr(parent.Bits(), parent.IsIPv6()) {
		return nil
	}
	m := newRangeState(parent)
	m.classified = true
	m.ingress = lo.ingress
	m.ips = nil
	m.total = lo.total + hi.total
	m.byteTotal = lo.byteTotal + hi.byteTotal
	m.counters = append(votes(nil), lo.counters...)
	for _, x := range hi.counters {
		m.counters.add(x.in, x.n)
	}
	m.lastSeen = lo.lastSeen
	if hi.lastSeen.After(m.lastSeen) {
		m.lastSeen = hi.lastSeen
	}
	m.classifiedAt = lo.classifiedAt
	if hi.classifiedAt.Before(m.classifiedAt) {
		m.classifiedAt = hi.classifiedAt
	}
	// Sketch provenance is sticky across joins: if either child was
	// classified on sketched evidence, so was the parent.
	m.classifiedSketched = lo.classifiedSketched || hi.classifiedSketched
	// The merged range must still be prevalent; with identical ingresses it
	// always is, but guard against pathological counter mixes.
	if c := m.counters.get(m.ingress); m.total > 0 && c/m.total < e.cfg.Q {
		return nil
	}
	return m
}

// String summarizes the engine state for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("ipd.Engine{ranges: %d, now: %s, cycles: %d}",
		e.idx.len(), e.now.Format(time.RFC3339), e.tel.cycles.Value())
}
