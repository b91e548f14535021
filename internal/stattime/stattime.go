// Package stattime implements the "statistical time" pre-processing step of
// §3.1 of the paper: router clocks on thousands of devices drift, so the
// pipeline infers a time axis from the flow data itself instead of trusting
// any wall clock. Traffic is segmented into uniform buckets; the current
// position on the time axis is the maximum plausible timestamp observed so
// far; records too far outside the current range are discarded, as are whole
// buckets that do not meet an activity threshold.
//
// The paper notes this "might exclude some data but ensures consistency
// despite clock drifts" — the Binner exposes drop counters so operators can
// watch exactly how much.
package stattime

import (
	"fmt"
	"math"
	"slices"
	"time"

	"ipd/internal/flow"
	"ipd/internal/telemetry"
	"ipd/internal/trace"
)

// Config parameterizes a Binner.
type Config struct {
	// Bucket is the uniform bucket length (the paper's t, default 60 s).
	Bucket time.Duration
	// MinActivity is the minimum number of records a bucket needs to be
	// emitted; under-threshold buckets are discarded entirely.
	MinActivity int
	// MaxSkew bounds how far a record's timestamp may run ahead of the
	// inferred statistical time before it is treated as a clock error and
	// dropped (instead of yanking the time axis forward). Records older
	// than the oldest open bucket are always dropped as stale.
	MaxSkew time.Duration
	// MaxOpenBuckets bounds buffered, not-yet-flushed buckets (late data
	// tolerance). Older buckets are flushed as time advances.
	MaxOpenBuckets int
}

// DefaultConfig mirrors the deployment defaults.
func DefaultConfig() Config {
	return Config{
		Bucket:         time.Minute,
		MinActivity:    1,
		MaxSkew:        5 * time.Minute,
		MaxOpenBuckets: 3,
	}
}

func (c Config) validate() error {
	if c.Bucket <= 0 {
		return fmt.Errorf("stattime: Bucket must be positive, got %v", c.Bucket)
	}
	if c.MinActivity < 0 {
		return fmt.Errorf("stattime: MinActivity must be >= 0, got %d", c.MinActivity)
	}
	if c.MaxSkew < 0 {
		return fmt.Errorf("stattime: MaxSkew must be >= 0, got %v", c.MaxSkew)
	}
	if c.MaxOpenBuckets < 1 {
		return fmt.Errorf("stattime: MaxOpenBuckets must be >= 1, got %d", c.MaxOpenBuckets)
	}
	return nil
}

// Stats counts records handled by a Binner. It is a point-in-time view of
// the Binner's Metrics atomics, so it may be read concurrently with Offer
// (it is current as of the last completed Offer or OfferBatch call).
type Stats struct {
	// Accepted records were assigned to a bucket.
	Accepted uint64
	// DroppedStale records were older than the oldest open bucket.
	DroppedStale uint64
	// DroppedFuture records ran further than MaxSkew ahead of statistical
	// time.
	DroppedFuture uint64
	// DroppedInactive records were in buckets discarded for low activity.
	DroppedInactive uint64
	// BucketsEmitted and BucketsDiscarded count flushed buckets.
	BucketsEmitted   uint64
	BucketsDiscarded uint64
}

// Metrics is the Binner's telemetry counter set. All fields are atomic;
// updates happen once per Offer/OfferBatch call, reads take no lock.
type Metrics struct {
	// Accepted, DroppedStale, DroppedFuture, DroppedInactive,
	// BucketsEmitted, and BucketsDiscarded mirror the Stats fields.
	Accepted         telemetry.Counter
	DroppedStale     telemetry.Counter
	DroppedFuture    telemetry.Counter
	DroppedInactive  telemetry.Counter
	BucketsEmitted   telemetry.Counter
	BucketsDiscarded telemetry.Counter
	// DriftCorrections counts records that pulled the statistical time
	// axis forward (a router clock running ahead of the inferred now).
	DriftCorrections telemetry.Counter
	// Rebinned counts accepted records that landed in an older open bucket
	// than the newest one (late data re-binned behind the time axis).
	Rebinned telemetry.Counter
	// OpenBuckets is the number of buffered, not-yet-flushed buckets.
	OpenBuckets telemetry.Gauge
	// RecordLag observes, per accepted record, how far its timestamp trails
	// the statistical now (seconds) — the bucket-lag distribution that
	// shows how much reordering the binner absorbs.
	RecordLag *telemetry.Histogram
}

// NewMetrics returns a Metrics set. When reg is non-nil every metric is
// registered under the ipd_stattime_* namespace; with a nil registry the
// counters still work but are not exposed (the default for bare Binners).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{}
	if reg == nil {
		m.RecordLag = telemetry.NewHistogram(lagBuckets())
		return m
	}
	reg.RegisterCounter("ipd_stattime_accepted_total",
		"Records assigned to a statistical-time bucket.", &m.Accepted)
	reg.RegisterCounter("ipd_stattime_dropped_stale_total",
		"Records dropped as older than the oldest open bucket.", &m.DroppedStale)
	reg.RegisterCounter("ipd_stattime_dropped_future_total",
		"Records dropped for running further than MaxSkew ahead of statistical time.", &m.DroppedFuture)
	reg.RegisterCounter("ipd_stattime_dropped_inactive_total",
		"Records discarded with under-threshold buckets.", &m.DroppedInactive)
	reg.RegisterCounter("ipd_stattime_buckets_emitted_total",
		"Statistical-time buckets flushed downstream.", &m.BucketsEmitted)
	reg.RegisterCounter("ipd_stattime_buckets_discarded_total",
		"Buckets discarded for low activity.", &m.BucketsDiscarded)
	reg.RegisterCounter("ipd_stattime_drift_corrections_total",
		"Records that advanced the inferred statistical time axis.", &m.DriftCorrections)
	reg.RegisterCounter("ipd_stattime_rebinned_total",
		"Accepted records binned behind the newest open bucket (late data).", &m.Rebinned)
	reg.RegisterGauge("ipd_stattime_open_buckets",
		"Buffered, not-yet-flushed statistical-time buckets.", &m.OpenBuckets)
	m.RecordLag = reg.Histogram("ipd_stattime_record_lag_seconds",
		"Per-record lag behind the statistical now at acceptance.", lagBuckets())
	return m
}

// lagBuckets spans sub-second reordering up to the multi-minute skews
// MaxSkew tolerates.
func lagBuckets() []float64 {
	return []float64{0.1, 1, 5, 15, 30, 60, 120, 300, 600}
}

// Bucket is one emitted statistical-time interval.
type Bucket struct {
	// Start is the bucket's inclusive start on the statistical time axis.
	Start time.Time
	// Records are the accepted records, in arrival order. They belong to
	// the emit callee (see Binner.Recycle).
	Records []flow.Record
}

// End returns the bucket's exclusive end given the configured length.
func (b Bucket) End(length time.Duration) time.Time { return b.Start.Add(length) }

// maxUnixSec bounds the timestamps the Binner does arithmetic on: within
// 2^62 ns of the epoch (years 1823-2116) the difference of two unix-nano
// values cannot overflow. Anything outside is dropped as future or stale.
const maxUnixSec = (1 << 62) / int64(time.Second)

// openBucket is one buffered bucket: its interval [start, end) as unix
// nanoseconds, and the same start as the time.Time handed to emit.
type openBucket struct {
	start, end int64
	at         time.Time
	recs       []flow.Record
}

type tally struct{ accepted, stale, future, drift, rebinned uint64 }

// Binner segments a flow stream into statistical-time buckets. It is not
// safe for concurrent use; run one Binner per ingest goroutine and merge
// downstream (the IPD engine's stage 1 is per-reader anyway).
//
// A record inside an open bucket's cached interval is binned with integer
// comparisons alone; only one outside every interval goes through
// time.Time.Truncate, so alignment is Truncate's for any bucket length
// (DESIGN.md §2, "Statistical time").
type Binner struct {
	cfg    Config
	emit   func(Bucket)
	m      *Metrics
	tracer *trace.Tracer

	bucket, maxSkew int64 // cfg.Bucket and cfg.MaxSkew in nanoseconds

	// now is the inferred statistical "now" (max accepted timestamp so
	// far), nowNs the same in unix nanoseconds. [curStart, curEnd) is now's
	// bucket, oldest the start of the oldest bucket still admitted.
	now                             time.Time
	nowNs, curStart, curEnd, oldest int64

	open []openBucket // at most MaxOpenBuckets, ascending by start
	// spare holds backing arrays handed back by Recycle; lastLen, the size
	// of the bucket finished last, sizes the next fresh one.
	spare   [][]flow.Record
	lastLen int

	pend tally // this call's counts; publish adds them (and lag) to m
	lag  *telemetry.HistogramBatch

	// rejoin is set by RestoreState: the gap between a restored clock and
	// live traffic is downtime, not a router clock error, so the first
	// over-skew record after a restore re-anchors the time axis (once)
	// instead of being dropped. Without this a restart longer than MaxSkew
	// would drop every subsequent record as future, forever.
	rejoin bool
}

// NewBinner returns a Binner that calls emit for every bucket that survives
// the activity threshold, in increasing start order.
func NewBinner(cfg Config, emit func(Bucket)) (*Binner, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if emit == nil {
		return nil, fmt.Errorf("stattime: emit callback must not be nil")
	}
	b := &Binner{cfg: cfg, emit: emit, bucket: int64(cfg.Bucket), maxSkew: int64(cfg.MaxSkew)}
	b.SetMetrics(NewMetrics(nil))
	return b, nil
}

// SetMetrics replaces the Binner's metric set (typically one built with
// NewMetrics against a shared registry). Call before the first Offer.
func (b *Binner) SetMetrics(m *Metrics) {
	if m != nil {
		b.m = m
		b.lag = m.RecordLag.Batch()
	}
}

// SetTracer attaches a pipeline tracer; nil detaches. Records are spanned
// 1-in-N (the tracer's sample rate) under PhaseBin. Call before the first
// Offer.
func (b *Binner) SetTracer(t *trace.Tracer) { b.tracer = t }

// Stats returns a snapshot of the drop counters, loaded from the metric
// atomics (safe concurrently with Offer).
func (b *Binner) Stats() Stats {
	return Stats{
		Accepted:         b.m.Accepted.Value(),
		DroppedStale:     b.m.DroppedStale.Value(),
		DroppedFuture:    b.m.DroppedFuture.Value(),
		DroppedInactive:  b.m.DroppedInactive.Value(),
		BucketsEmitted:   b.m.BucketsEmitted.Value(),
		BucketsDiscarded: b.m.BucketsDiscarded.Value(),
	}
}

// Now returns the current statistical time (zero before any accepted
// record).
func (b *Binner) Now() time.Time { return b.now }

// Offer feeds one record. It returns true if the record was accepted into a
// bucket.
func (b *Binner) Offer(rec flow.Record) bool {
	defer b.publish()
	return b.offer(&rec)
}

// OfferBatch is Offer over a slice, in order, with the metrics published
// once for the whole batch.
func (b *Binner) OfferBatch(recs []flow.Record) {
	for i := range recs {
		b.offer(&recs[i])
	}
	b.publish()
}

// offer bins one record, counting into b.pend.
func (b *Binner) offer(rec *flow.Record) bool {
	if b.tracer != nil && b.tracer.Sample() {
		defer b.tracer.Begin(trace.PhaseBin, 0).End(0)
	}
	if !rec.Src.IsValid() || rec.Ts.IsZero() { // Record.Valid, without copying the record
		b.pend.stale++
		return false
	}
	sec := rec.Ts.Unix()
	if sec >= maxUnixSec {
		b.pend.future++
		return false
	}
	if sec <= -maxUnixSec {
		b.pend.stale++
		return false
	}
	ts := sec*int64(time.Second) + int64(rec.Ts.Nanosecond())

	moved := false
	switch {
	case b.now.IsZero():
		b.now, b.nowNs = rec.Ts, ts
		moved = true
	case ts > b.nowNs:
		if ts-b.nowNs > b.maxSkew && !b.rejoin {
			// A clock running far ahead must not drag the whole axis with
			// it; sequence inference beats trusting any single router.
			b.pend.future++
			return false
		}
		b.now, b.nowNs = rec.Ts, ts
		b.pend.drift++
		moved = ts >= b.curEnd
	case ts < b.oldest:
		b.pend.stale++
		return false
	}
	// Accepted from here on. Buckets that fell out of the window go first.
	if moved {
		b.moveWindow()
	}
	if moved || b.rejoin {
		// An accepted record ends the post-restore rejoin window; the
		// normal MaxSkew policy applies from here on. (If the clock just
		// jumped, this emits the restored pre-crash buckets.)
		b.rejoin = false
		b.flushBefore(b.oldest)
	}
	i := len(b.open) - 1
	for i >= 0 && (ts < b.open[i].start || ts >= b.open[i].end) {
		i--
	}
	if i < 0 {
		i = b.openAt(rec.Ts)
	}
	bk := &b.open[i]
	bk.recs = append(bk.recs, *rec)
	b.pend.accepted++
	if bk.start < b.curStart {
		b.pend.rebinned++
	}
	b.lag.Observe(time.Duration(b.nowNs - ts).Seconds())
	return true
}

// moveWindow recomputes the cached bounds from now.
func (b *Binner) moveWindow() {
	b.curStart = b.now.Truncate(b.cfg.Bucket).UnixNano()
	b.curEnd = b.curStart + b.bucket
	b.oldest = b.curStart - int64(b.cfg.MaxOpenBuckets-1)*b.bucket
}

// openAt opens the bucket containing ts and returns its index in b.open.
// Its records go in a spare if one is large enough for a bucket like the
// last, else in a new slice sized from the last with headroom.
func (b *Binner) openAt(ts time.Time) int {
	var recs []flow.Record
	if n := len(b.spare); n > 0 {
		recs, b.spare[n-1], b.spare = b.spare[n-1], nil, b.spare[:n-1]
	}
	if cap(recs) < b.lastLen {
		recs = make([]flow.Record, 0, b.lastLen+b.lastLen/8)
	}
	at := ts.Truncate(b.cfg.Bucket)
	start := at.UnixNano()
	i := len(b.open)
	for i > 0 && b.open[i-1].start > start {
		i--
	}
	b.open = slices.Insert(b.open, i, openBucket{start: start, end: start + b.bucket, at: at, recs: recs})
	return i
}

// Recycle hands back the Records slice of an emitted bucket that the owner
// no longer reads; the Binner reuses its backing array for a later bucket.
// It may be called from inside the emit callback. At most MaxOpenBuckets
// spares are kept, and Flush drops them all.
func (b *Binner) Recycle(recs []flow.Record) {
	if cap(recs) > 0 && len(b.spare) < b.cfg.MaxOpenBuckets {
		b.spare = append(b.spare, recs[:0])
	}
}

// publish adds what the call counted to the metric atomics.
func (b *Binner) publish() {
	p := b.pend
	b.pend = tally{}
	add := func(c *telemetry.Counter, n uint64) {
		if n != 0 {
			c.Add(n)
		}
	}
	add(&b.m.Accepted, p.accepted)
	add(&b.m.DroppedStale, p.stale)
	add(&b.m.DroppedFuture, p.future)
	add(&b.m.DriftCorrections, p.drift)
	add(&b.m.Rebinned, p.rebinned)
	if p.accepted != 0 {
		b.lag.Flush()
		b.m.OpenBuckets.Set(int64(len(b.open)))
	}
}

// flushBefore emits (or discards) all open buckets whose start is strictly
// older than cutoff (unix nanoseconds), oldest first.
func (b *Binner) flushBefore(cutoff int64) {
	k := 0
	for ; k < len(b.open) && b.open[k].start < cutoff; k++ {
		bk := &b.open[k]
		b.lastLen = len(bk.recs)
		if len(bk.recs) < b.cfg.MinActivity {
			b.m.BucketsDiscarded.Inc()
			b.m.DroppedInactive.Add(uint64(len(bk.recs)))
			b.Recycle(bk.recs)
			continue
		}
		b.m.BucketsEmitted.Inc()
		b.emit(Bucket{Start: bk.at, Records: bk.recs})
	}
	n := copy(b.open, b.open[k:])
	clear(b.open[n:])
	b.open = b.open[:n]
}

// Flush emits all remaining open buckets (end of stream), oldest first, and
// drops the spare buffers.
func (b *Binner) Flush() {
	b.flushBefore(math.MaxInt64)
	b.m.OpenBuckets.Set(0)
	b.spare = nil
}
