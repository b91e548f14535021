// Package exphealth tracks the health of the flow exporters feeding IPD.
//
// IPD's verdicts are only as trustworthy as its input (paper §3.1 assumes
// sampled exports from hundreds of border routers), yet the transport
// headers that reveal input quality — NetFlow v5 FlowSequence, IPFIX
// per-domain Sequence, export timestamps, sampling intervals — are normally
// discarded once records are decoded. This package keeps them: a Tracker
// accounts, per exporter feed, for datagram loss (sequence gaps with 32-bit
// wraparound, reorder netting, and restart detection), export-clock skew
// against the collector clock and the statistical-time bins, record-rate
// and sampling-interval drift, silent/stale feeds, and IPFIX template
// churn. Per-feed health folds into a per-ingress coverage score in [0, 1]
// that the engine consults when classifying, so decisions made on degraded
// input carry provenance (ReasonDegradedCoverage) instead of silently
// polluting the partition.
//
// Hot paths are cheap by construction: per-record trace accounting
// (ObserveRecord) is one atomic add behind a copy-on-write slice lookup;
// per-datagram accounting takes one short mutex hold per datagram, not per
// record. Cycle analytics (Tick) run on the engine's statistical clock so
// alert decisions derived from them replay deterministically.
package exphealth

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ipd/internal/flow"
	"ipd/internal/telemetry"
)

// Proto identifies which decode path feeds an exporter entry.
type Proto uint8

const (
	// ProtoNetFlow is a NetFlow v5 stream attributed to a router.
	ProtoNetFlow Proto = iota
	// ProtoIPFIX is one IPFIX observation domain of a router.
	ProtoIPFIX
	// ProtoTrace is per-record accounting from an offline trace (no
	// transport headers, so only rates and staleness are observable).
	ProtoTrace
)

// String returns the short protocol tag used in feed keys.
func (p Proto) String() string {
	switch p {
	case ProtoNetFlow:
		return "netflow"
	case ProtoIPFIX:
		return "ipfix"
	case ProtoTrace:
		return "trace"
	}
	return "unknown"
}

// Key identifies one exporter feed: the protocol, the attributed router,
// and (for IPFIX) the observation domain.
type Key struct {
	Proto  Proto
	Router flow.RouterID
	Domain uint32 // IPFIX observation domain; zero otherwise
}

// String renders the feed key in the stable form used as alert subjects
// and snapshot keys: "netflow:R12", "ipfix:R3/256", "trace:R7".
func (k Key) String() string {
	if k.Proto == ProtoIPFIX {
		return fmt.Sprintf("ipfix:R%d/%d", k.Router, k.Domain)
	}
	return fmt.Sprintf("%s:R%d", k.Proto, k.Router)
}

// Options configures a Tracker. The zero value picks the documented
// defaults.
type Options struct {
	// StaleAfter is how long a feed may go without producing any
	// datagram or record (in statistical time, measured between cycle
	// Ticks) before it is considered stale. Default 3m.
	StaleAfter time.Duration

	// SkewMax is the absolute export-timestamp skew (exporter clock vs
	// collector clock) beyond which a feed's clock is considered broken.
	// Skewed timestamps land records in the wrong statistical-time bins,
	// so a feed over this limit also halves its coverage score.
	// Default 5m.
	SkewMax time.Duration

	// Now supplies the collector wall clock used for skew measurement.
	// Injectable so deterministic harnesses can pin it to virtual time.
	// Default time.Now.
	Now func() time.Time
}

const (
	// degradedBelow is the coverage floor: an ingress whose routers' feeds
	// score below it has classifications annotated with
	// ReasonDegradedCoverage.
	degradedBelow = 0.9

	// lossAlpha, rateAlpha and skewAlpha are the EWMA smoothing factors for
	// the loss fraction, per-cycle record rate, and clock skew estimates.
	lossAlpha = 0.5
	rateAlpha = 0.3
	skewAlpha = 0.2

	// reorderTolerance bounds how far backwards a datagram's sequence may
	// sit from the expected value and still be treated as late delivery
	// (netted against booked loss) rather than an exporter restart. In
	// records.
	reorderTolerance = 4096

	// maxForwardGap bounds how large a forward sequence gap is believed as
	// loss; anything larger is an exporter restart with a re-seeded
	// counter. In records.
	maxForwardGap = 1 << 26

	// maxExporters bounds tracked feeds; feeds beyond it are counted as
	// dropped and not tracked.
	maxExporters = 4096
)

func (o Options) withDefaults() Options {
	if o.StaleAfter <= 0 {
		o.StaleAfter = 3 * time.Minute
	}
	if o.SkewMax <= 0 {
		o.SkewMax = 5 * time.Minute
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// feedState is the per-feed accounting. Mutated under Tracker.mu except
// records, which the trace fast path bumps atomically.
type feedState struct {
	key Key

	records   atomic.Uint64 // data records attributed to this feed
	datagrams uint64        // datagrams / IPFIX messages
	lost      uint64        // records lost to sequence gaps (net of reorders)
	reordered uint64        // datagrams that arrived late or duplicated
	restarts  uint64        // sequence resets / implausible jumps

	seqInit bool
	nextSeq uint32 // expected sequence of the next datagram

	skewInit   bool
	skewEWMA   float64 // seconds, exporter clock minus collector clock
	maxAbsSkew float64
	lastExport time.Time

	sampling        uint16
	samplingSet     bool
	samplingChanges uint64

	templateRecords uint64 // IPFIX template records received
	unknownSets     uint64 // IPFIX data sets with no known template

	// Cycle-tick folds (all statistical time).
	lastRecords   uint64
	lastLost      uint64
	lastDatagrams uint64
	lastTemplates uint64
	lastUnknown   uint64
	lastSampChg   uint64
	lossEWMA      float64
	rateEWMA      float64
	haveRate      bool
	seenTick      bool
	lastActive    time.Time
	stale         bool
	coverage      float64
}

// CycleStat is one feed's health as folded at a cycle Tick. Slices of
// CycleStat are returned sorted by Key, so downstream alerting iterates
// deterministically.
type CycleStat struct {
	Key    string
	Router flow.RouterID

	Records   uint64 // records this tick
	Lost      uint64 // records lost this tick
	Datagrams uint64 // datagrams this tick

	LossFrac  float64 // smoothed loss fraction in [0, 1]
	RateEWMA  float64 // smoothed records per tick
	RateDrift float64 // |rate - EWMA| / EWMA before this tick folded in

	SkewSeconds      float64 // smoothed exporter-minus-collector clock skew
	SkewExceeded     bool    // |SkewSeconds| >= SkewMax
	SkewMaxSeconds   float64
	ExportLagSeconds float64 // tick stattime minus last export timestamp

	Stale             bool
	SilentForSeconds  float64
	StaleAfterSeconds float64

	Coverage float64 // rolled-up feed coverage in [0, 1]

	SamplingChanged bool   // sampling interval changed since last tick
	TemplateRecords uint64 // IPFIX template records this tick
	UnknownSets     uint64 // unknown-template data sets this tick
	Restarts        uint64 // cumulative exporter restarts
}

// Tracker accounts exporter health across all feeds. Safe for concurrent
// use by decode goroutines, the cycle tick, and HTTP snapshots.
type Tracker struct {
	opts Options

	mu      sync.Mutex
	feeds   map[Key]*feedState
	order   []*feedState // sorted by key string
	dropped uint64       // feeds rejected at maxExporters

	// fast is the per-record trace path: RouterID-indexed copy-on-write
	// slice so ObserveRecord is one bounds check + one atomic add.
	fast atomic.Pointer[[]*feedState]
	// blackhole absorbs records for routers past maxExporters so the
	// rejected path stays off the mutex.
	blackhole feedState

	// cov is last Tick's per-router coverage roll-up, swapped atomically
	// for the engine's classify-time reads.
	cov atomic.Pointer[map[flow.RouterID]float64]

	// skews is last Tick's per-router skew roll-up (the worst |skew| feed's
	// smoothed exporter-minus-collector seconds), swapped atomically for the
	// workload profiler's latency correction reads.
	skews atomic.Pointer[map[flow.RouterID]float64]

	ticked    bool
	lastTick  time.Time
	aggStale  int64
	aggSkew   uint64 // math.Float64bits of max |skew| across feeds
	aggCovMin uint64 // math.Float64bits of min coverage across feeds
}

// New returns a Tracker with the given options (zero value = defaults).
func New(opts Options) *Tracker {
	t := &Tracker{
		opts:  opts.withDefaults(),
		feeds: make(map[Key]*feedState),
	}
	t.aggCovMin = math.Float64bits(1)
	return t
}

// StaleAfter reports the configured silent-feed threshold.
func (t *Tracker) StaleAfter() time.Duration { return t.opts.StaleAfter }

// SkewMax reports the configured clock-skew limit.
func (t *Tracker) SkewMax() time.Duration { return t.opts.SkewMax }

// feedLocked returns the state for key, creating it if there is room.
// Returns nil when the feed table is full and key is new.
func (t *Tracker) feedLocked(key Key) *feedState {
	if fs, ok := t.feeds[key]; ok {
		return fs
	}
	if len(t.feeds) >= maxExporters {
		t.dropped++
		return nil
	}
	fs := &feedState{key: key, coverage: 1}
	t.feeds[key] = fs
	ks := key.String()
	i := 0
	for i < len(t.order) && t.order[i].key.String() < ks {
		i++
	}
	t.order = append(t.order, nil)
	copy(t.order[i+1:], t.order[i:])
	t.order[i] = fs
	return fs
}

// ObserveRecord accounts one trace record attributed to router. This is
// the engine-ingest hot path: a copy-on-write slice lookup plus one atomic
// add, no locks once the router is known.
func (t *Tracker) ObserveRecord(router flow.RouterID) {
	if p := t.fast.Load(); p != nil {
		sl := *p
		if int(router) < len(sl) {
			if fs := sl[router]; fs != nil {
				fs.records.Add(1)
				return
			}
		}
	}
	t.observeRecordSlow(router)
}

func (t *Tracker) observeRecordSlow(router flow.RouterID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fs := t.feedLocked(Key{Proto: ProtoTrace, Router: router})
	if fs == nil {
		fs = &t.blackhole
	}
	fs.records.Add(1)
	var sl []*feedState
	if p := t.fast.Load(); p != nil {
		sl = *p
	}
	if int(router) >= len(sl) {
		grown := make([]*feedState, int(router)+1)
		copy(grown, sl)
		sl = grown
	} else {
		sl = append([]*feedState(nil), sl...)
	}
	sl[router] = fs
	t.fast.Store(&sl)
}

// ObserveNetFlow accounts one decoded NetFlow v5 datagram: sequence-gap
// loss (FlowSequence counts the flows the exporter sent before this
// datagram), export-clock skew, and sampling-interval changes.
func (t *Tracker) ObserveNetFlow(router flow.RouterID, seq uint32, records int, exportTime time.Time, sampling uint16) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fs := t.feedLocked(Key{Proto: ProtoNetFlow, Router: router})
	if fs == nil {
		return
	}
	fs.datagrams++
	fs.records.Add(uint64(records))
	fs.noteSequence(seq, records)
	fs.noteExport(exportTime, t.opts.Now())
	if fs.samplingSet && fs.sampling != sampling {
		fs.samplingChanges++
	}
	fs.sampling, fs.samplingSet = sampling, true
}

// ObserveIPFIX accounts one decoded IPFIX message for an observation
// domain. Per RFC 7011 the header Sequence counts the data records sent
// before this message, so template records never advance it. A message
// carrying unknown-template data sets has an unknowable record total;
// sequence accounting resynchronizes on the next message instead of
// booking a bogus gap.
func (t *Tracker) ObserveIPFIX(router flow.RouterID, domain, seq uint32, dataRecords, templateRecords, unknownSets int, exportTime time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fs := t.feedLocked(Key{Proto: ProtoIPFIX, Router: router, Domain: domain})
	if fs == nil {
		return
	}
	fs.datagrams++
	fs.records.Add(uint64(dataRecords))
	fs.templateRecords += uint64(templateRecords)
	fs.noteSequence(seq, dataRecords)
	if unknownSets > 0 {
		fs.unknownSets += uint64(unknownSets)
		fs.seqInit = false // record total unknowable: resync next message
	}
	fs.noteExport(exportTime, t.opts.Now())
}

// noteSequence runs the shared sequence-gap state machine. seq is the
// counter carried by this datagram (records sent before it), n the records
// it carries. All arithmetic is uint32 so wraparound at 2^32 behaves.
func (fs *feedState) noteSequence(seq uint32, n int) {
	next := seq + uint32(n)
	if !fs.seqInit {
		fs.seqInit = true
		fs.nextSeq = next
		return
	}
	delta := int64(int32(seq - fs.nextSeq))
	switch {
	case delta == 0:
		fs.nextSeq = next
	case delta < 0 && delta >= -reorderTolerance:
		// A datagram we already booked as lost arrived late (or twice):
		// net its records back out. Expected sequence stays put.
		fs.reordered++
		if un := uint64(n); fs.lost >= un {
			fs.lost -= un
		} else {
			fs.lost = 0
		}
	case delta > 0 && delta <= maxForwardGap:
		fs.lost += uint64(delta)
		fs.nextSeq = next
	default:
		// Sequence reset (counter re-seeded near zero) or an implausible
		// jump: the exporter restarted. Not loss — re-anchor.
		fs.restarts++
		fs.nextSeq = next
	}
}

func (fs *feedState) noteExport(exportTime, now time.Time) {
	fs.lastExport = exportTime
	skew := exportTime.Sub(now).Seconds()
	if !fs.skewInit {
		fs.skewInit = true
		fs.skewEWMA = skew
	} else {
		fs.skewEWMA += skewAlpha * (skew - fs.skewEWMA)
	}
	if a := math.Abs(skew); a > fs.maxAbsSkew {
		fs.maxAbsSkew = a
	}
}

// Tick folds per-feed deltas at a cycle boundary and returns one CycleStat
// per feed, sorted by key. at is statistical time (the cycle sample
// timestamp), so staleness and every stat that feeds alert decisions are
// deterministic functions of the input stream and replay byte-equal.
func (t *Tracker) Tick(at time.Time) []CycleStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ticked = true
	t.lastTick = at
	stats := make([]CycleStat, 0, len(t.order))
	cov := make(map[flow.RouterID]float64, len(t.order))
	skews := make(map[flow.RouterID]float64, len(t.order))
	var stale int64
	maxSkew, covMin := 0.0, 1.0
	for _, fs := range t.order {
		st := fs.fold(at, t.opts)
		stats = append(stats, st)
		if c, ok := cov[fs.key.Router]; !ok || st.Coverage < c {
			cov[fs.key.Router] = st.Coverage
		}
		if s, ok := skews[fs.key.Router]; !ok || math.Abs(st.SkewSeconds) > math.Abs(s) {
			skews[fs.key.Router] = st.SkewSeconds
		}
		if st.Stale {
			stale++
		}
		if a := math.Abs(st.SkewSeconds); a > maxSkew {
			maxSkew = a
		}
		if st.Coverage < covMin {
			covMin = st.Coverage
		}
	}
	t.cov.Store(&cov)
	t.skews.Store(&skews)
	t.aggStale = stale
	t.aggSkew = math.Float64bits(maxSkew)
	t.aggCovMin = math.Float64bits(covMin)
	return stats
}

func (fs *feedState) fold(at time.Time, opts Options) CycleStat {
	recs := fs.records.Load()
	dr := recs - fs.lastRecords
	fs.lastRecords = recs
	if fs.lost < fs.lastLost {
		// Reorder netting pulled cumulative loss back below the last
		// fold; the correction erases previously booked loss.
		fs.lastLost = fs.lost
	}
	dl := fs.lost - fs.lastLost
	fs.lastLost = fs.lost
	dd := fs.datagrams - fs.lastDatagrams
	fs.lastDatagrams = fs.datagrams
	dt := fs.templateRecords - fs.lastTemplates
	fs.lastTemplates = fs.templateRecords
	du := fs.unknownSets - fs.lastUnknown
	fs.lastUnknown = fs.unknownSets
	sampChanged := fs.samplingChanges != fs.lastSampChg
	fs.lastSampChg = fs.samplingChanges

	if !fs.seenTick {
		// A feed first observed between ticks gets this tick as its
		// activity anchor, so creation alone never reads as stale.
		fs.seenTick = true
		fs.lastActive = at
	} else if dr > 0 || dd > 0 {
		fs.lastActive = at
	}
	silent := at.Sub(fs.lastActive)
	fs.stale = silent > opts.StaleAfter

	if dr+dl > 0 {
		inst := float64(dl) / float64(dr+dl)
		fs.lossEWMA += lossAlpha * (inst - fs.lossEWMA)
	}

	rate := float64(dr)
	var drift float64
	if fs.haveRate && fs.rateEWMA > 0 {
		drift = math.Abs(rate-fs.rateEWMA) / fs.rateEWMA
	}
	if !fs.haveRate {
		fs.rateEWMA, fs.haveRate = rate, true
	} else {
		fs.rateEWMA += rateAlpha * (rate - fs.rateEWMA)
	}

	skewExceeded := fs.skewInit && math.Abs(fs.skewEWMA) >= opts.SkewMax.Seconds()
	cov := 1 - fs.lossEWMA
	if cov < 0 {
		cov = 0
	}
	if skewExceeded {
		cov *= 0.5
	}
	if fs.stale {
		cov = 0
	}
	fs.coverage = cov

	var lag float64
	if !fs.lastExport.IsZero() {
		lag = at.Sub(fs.lastExport).Seconds()
	}

	return CycleStat{
		Key:               fs.key.String(),
		Router:            fs.key.Router,
		Records:           dr,
		Lost:              dl,
		Datagrams:         dd,
		LossFrac:          fs.lossEWMA,
		RateEWMA:          fs.rateEWMA,
		RateDrift:         drift,
		SkewSeconds:       fs.skewEWMA,
		SkewExceeded:      skewExceeded,
		SkewMaxSeconds:    opts.SkewMax.Seconds(),
		ExportLagSeconds:  lag,
		Stale:             fs.stale,
		SilentForSeconds:  silent.Seconds(),
		StaleAfterSeconds: opts.StaleAfter.Seconds(),
		Coverage:          cov,
		SamplingChanged:   sampChanged,
		TemplateRecords:   dt,
		UnknownSets:       du,
		Restarts:          fs.restarts,
	}
}

// IngressCoverage reports the coverage score of the ingress's router as of
// the last Tick, the configured floor, and whether the score is below it.
// Matches core.Config.Coverage. Routers with no tracked feed (or before
// the first Tick) report full coverage — absence of evidence is not
// degradation. Lock-free; callable from inside the engine's cycle.
func (t *Tracker) IngressCoverage(in flow.Ingress) (score, floor float64, degraded bool) {
	floor = degradedBelow
	m := t.cov.Load()
	if m == nil {
		return 1, floor, false
	}
	c, ok := (*m)[in.Router]
	if !ok {
		return 1, floor, false
	}
	return c, floor, c < floor
}

// RouterSkew reports the router's smoothed exporter-minus-collector clock
// skew in seconds as of the last Tick (the worst-offset feed when a router
// has several). Routers with no tracked feed, or before the first Tick,
// report 0. Lock-free; matches workload.Options.Skew, so record latency
// measurement can subtract the export clock's error.
func (t *Tracker) RouterSkew(router flow.RouterID) float64 {
	m := t.skews.Load()
	if m == nil {
		return 0
	}
	return (*m)[router]
}

// FeedSnapshot is one feed's cumulative and smoothed state for the
// /ipd/exporters endpoint.
type FeedSnapshot struct {
	Key    string `json:"key"`
	Proto  string `json:"proto"`
	Router uint16 `json:"router"`
	Domain uint32 `json:"domain,omitempty"`

	Datagrams   uint64 `json:"datagrams"`
	Records     uint64 `json:"records"`
	LostRecords uint64 `json:"lost_records"`
	Reordered   uint64 `json:"reordered"`
	Restarts    uint64 `json:"restarts"`

	LossFrac          float64 `json:"loss_frac"`
	RateEWMA          float64 `json:"rate_ewma"`
	SkewSeconds       float64 `json:"skew_seconds"`
	MaxAbsSkewSeconds float64 `json:"max_abs_skew_seconds"`
	Coverage          float64 `json:"coverage"`
	Stale             bool    `json:"stale"`

	SamplingInterval uint16 `json:"sampling_interval,omitempty"`
	SamplingChanges  uint64 `json:"sampling_changes,omitempty"`
	TemplateRecords  uint64 `json:"template_records,omitempty"`
	UnknownSets      uint64 `json:"unknown_template_sets,omitempty"`

	LastExport time.Time `json:"last_export,omitempty"`
}

// Snapshot is the full tracker state for /ipd/exporters.
type Snapshot struct {
	TrackedFeeds      int            `json:"tracked_feeds"`
	DroppedFeeds      uint64         `json:"dropped_feeds,omitempty"`
	StaleAfterSeconds float64        `json:"stale_after_seconds"`
	SkewMaxSeconds    float64        `json:"skew_max_seconds"`
	CoverageFloor     float64        `json:"coverage_floor"`
	LastTick          time.Time      `json:"last_tick,omitempty"`
	Exporters         []FeedSnapshot `json:"exporters"`
}

// Snapshot returns the current per-feed state, sorted by key.
func (t *Tracker) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		TrackedFeeds:      len(t.feeds),
		DroppedFeeds:      t.dropped,
		StaleAfterSeconds: t.opts.StaleAfter.Seconds(),
		SkewMaxSeconds:    t.opts.SkewMax.Seconds(),
		CoverageFloor:     degradedBelow,
		LastTick:          t.lastTick,
		Exporters:         make([]FeedSnapshot, 0, len(t.order)),
	}
	for _, fs := range t.order {
		s.Exporters = append(s.Exporters, FeedSnapshot{
			Key:               fs.key.String(),
			Proto:             fs.key.Proto.String(),
			Router:            uint16(fs.key.Router),
			Domain:            fs.key.Domain,
			Datagrams:         fs.datagrams,
			Records:           fs.records.Load(),
			LostRecords:       fs.lost,
			Reordered:         fs.reordered,
			Restarts:          fs.restarts,
			LossFrac:          fs.lossEWMA,
			RateEWMA:          fs.rateEWMA,
			SkewSeconds:       fs.skewEWMA,
			MaxAbsSkewSeconds: fs.maxAbsSkew,
			Coverage:          fs.coverage,
			Stale:             fs.stale,
			SamplingInterval:  fs.sampling,
			SamplingChanges:   fs.samplingChanges,
			TemplateRecords:   fs.templateRecords,
			UnknownSets:       fs.unknownSets,
			LastExport:        fs.lastExport,
		})
	}
	return s
}

// Summary holds the headline numbers for /stats blocks.
type Summary struct {
	Feeds       int    `json:"feeds"`
	Stale       int64  `json:"stale"`
	Records     uint64 `json:"records"`
	LostRecords uint64 `json:"lost_records"`
	Restarts    uint64 `json:"restarts"`
}

// Summary returns the headline totals.
func (t *Tracker) Summary() Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{Feeds: len(t.feeds), Stale: t.aggStale}
	for _, fs := range t.order {
		s.Records += fs.records.Load()
		s.LostRecords += fs.lost
		s.Restarts += fs.restarts
	}
	return s
}

func (t *Tracker) totalsLocked() (records, lost, reordered, restarts, templates, unknown, sampChanges uint64) {
	for _, fs := range t.order {
		records += fs.records.Load()
		lost += fs.lost
		reordered += fs.reordered
		restarts += fs.restarts
		templates += fs.templateRecords
		unknown += fs.unknownSets
		sampChanges += fs.samplingChanges
	}
	return
}

// RegisterMetrics exposes the ipd_exporter_* families on reg.
func (t *Tracker) RegisterMetrics(reg *telemetry.Registry) {
	total := func(pick func(records, lost, reordered, restarts, templates, unknown, sampChanges uint64) uint64) func() float64 {
		return func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(pick(t.totalsLocked()))
		}
	}
	reg.GaugeFunc("ipd_exporter_feeds", "Exporter feeds currently tracked.", func() float64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return float64(len(t.feeds))
	})
	reg.CounterFunc("ipd_exporter_records_total", "Data records attributed across all exporter feeds.",
		total(func(r, _, _, _, _, _, _ uint64) uint64 { return r }))
	reg.CounterFunc("ipd_exporter_lost_records_total", "Records lost to sequence gaps (net of reordered arrivals).",
		total(func(_, l, _, _, _, _, _ uint64) uint64 { return l }))
	reg.CounterFunc("ipd_exporter_reordered_total", "Datagrams that arrived out of order or duplicated.",
		total(func(_, _, o, _, _, _, _ uint64) uint64 { return o }))
	reg.CounterFunc("ipd_exporter_restarts_total", "Exporter restarts detected from sequence resets.",
		total(func(_, _, _, s, _, _, _ uint64) uint64 { return s }))
	reg.CounterFunc("ipd_exporter_template_records_total", "IPFIX template records received.",
		total(func(_, _, _, _, tp, _, _ uint64) uint64 { return tp }))
	reg.CounterFunc("ipd_exporter_unknown_template_sets_total", "IPFIX data sets skipped for lack of a template.",
		total(func(_, _, _, _, _, u, _ uint64) uint64 { return u }))
	reg.CounterFunc("ipd_exporter_sampling_changes_total", "NetFlow sampling-interval changes observed.",
		total(func(_, _, _, _, _, _, c uint64) uint64 { return c }))
	reg.GaugeFunc("ipd_exporter_stale", "Feeds currently stale (silent past the stale-after threshold).", func() float64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return float64(t.aggStale)
	})
	reg.GaugeFunc("ipd_exporter_skew_seconds_max", "Largest absolute smoothed clock skew across feeds.", func() float64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return math.Float64frombits(t.aggSkew)
	})
	reg.GaugeFunc("ipd_exporter_coverage_min", "Lowest feed coverage score as of the last cycle tick.", func() float64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return math.Float64frombits(t.aggCovMin)
	})
}
