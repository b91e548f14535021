package timeline

import (
	"io"
	"sort"
	"sync"
	"time"

	"ipd/internal/core"
	"ipd/internal/exphealth"
	"ipd/internal/telemetry"
	"ipd/internal/workload"
)

// Options configures a Collector. The zero value is usable.
type Options struct {
	// Window is the per-tier ring length of every series (0 means
	// DefaultWindow). With downsampling the total span per series is
	// Window * (1 + D + D²) cycles, D being the fold factor 8.
	Window int
}

// alertHistory bounds the retained alert log.
const alertHistory = 256

// ActiveAlert is one currently raised alert, keyed by (kind, subject).
type ActiveAlert struct {
	Kind    string    `json:"kind"`
	Subject string    `json:"subject"`
	Since   uint64    `json:"since_cycle"`
	At      time.Time `json:"at"`
	Reason  string    `json:"reason"`
}

// AlertRecord is one entry of the bounded alert log: a raise or a clear.
type AlertRecord struct {
	Kind    string    `json:"kind"`
	Raise   bool      `json:"raise"`
	Subject string    `json:"subject"`
	Cycle   uint64    `json:"cycle"`
	At      time.Time `json:"at"`
	Reason  string    `json:"reason"`
}

// ConvergenceBucket is one histogram slot of the convergence view.
type ConvergenceBucket struct {
	// UpperCycles is the inclusive upper bound in cycles; 0 marks the +Inf
	// overflow bucket.
	UpperCycles float64 `json:"upper_cycles"`
	Count       uint64  `json:"count"`
}

// ConvergenceView is the creation-to-first-classification histogram.
type ConvergenceView struct {
	Buckets []ConvergenceBucket `json:"buckets"`
	Total   uint64              `json:"total"`
	// MeanCycles is the average creation-to-classification delay.
	MeanCycles float64 `json:"mean_cycles"`
}

// AlertsView is the /ipd/alerts response body.
type AlertsView struct {
	Active  []ActiveAlert `json:"active"`
	History []AlertRecord `json:"history"`
	Raised  uint64        `json:"raised_total"`
	Cleared uint64        `json:"cleared_total"`
}

// Collector binds the time-series store and the analyzer to a core engine:
// assign OnCycle to core.Config.OnCycle (it records the per-cycle series,
// runs the analytics, and returns the alerts for the engine to journal) and
// chain ObserveEvent into the Config.OnEvent callback after the journal.
// All read methods are safe for concurrent use with the engine's cycle.
type Collector struct {
	store *Store

	mu      sync.Mutex
	an      *analyzer
	active  map[string]ActiveAlert // key: kind + " " + subject
	history []AlertRecord
	raised  uint64
	cleared uint64

	lastCycle uint64
	lastAt    time.Time

	// health, when set, is ticked once per cycle sample on statistical
	// time; its per-feed stats feed the ipd.exporter.* series and the
	// exporter alert machines. Ticking here (not on wall clock) keeps the
	// alert stream journal-replayable.
	health *exphealth.Tracker

	// contention, when set, reads the cumulative ingest-lock wait and
	// acquisition count (core.Server.LockContention); the per-cycle delta
	// becomes the ingest_lock_wait_seconds series. Wall-clock by nature, so
	// it feeds only the timeline — never the journaled analytics.
	contention   func() (time.Duration, uint64)
	lastLockWait time.Duration
	lastLockAcq  uint64

	// workload, when set, is ticked once per cycle sample on statistical
	// time: its deterministic cycle stats feed the ipd workload.* series and
	// the hot-prefix alert machine; its wall-clock latency quantiles feed
	// the timeline only.
	workload *workload.Profiler

	// metrics (nil until RegisterMetrics).
	samples      *telemetry.Counter
	alertCount   map[string]*telemetry.Counter // per kind
	alertsActive map[string]*telemetry.Gauge   // per kind
	convHist     *telemetry.Histogram
}

// NewCollector builds a collector with its own store.
func NewCollector(opts Options) *Collector {
	return &Collector{
		store:  NewStore(opts.Window),
		an:     newAnalyzer(),
		active: make(map[string]ActiveAlert),
	}
}

// Store exposes the underlying time-series store (windowed reads, CSV).
func (c *Collector) Store() *Store { return c.store }

// SetContention attaches the ingest-lock contention reader
// (core.Server.LockContention). Call during setup.
func (c *Collector) SetContention(fn func() (time.Duration, uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.contention = fn
}

// SetExporterHealth attaches the exporter-health tracker. The collector
// becomes the tracker's cycle driver: each OnCycle calls Tick(s.At),
// records the aggregate and per-feed series, and runs the exporter alert
// hysteresis. Call during setup, before the engine starts cycling.
func (c *Collector) SetExporterHealth(t *exphealth.Tracker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.health = t
}

// SetWorkload attaches the workload profiler. The collector becomes the
// profiler's cycle driver: each OnCycle calls TickCycle(s.Cycle),
// records the workload series, and runs the hot-prefix alert hysteresis.
// Call during setup, before the engine starts cycling.
func (c *Collector) SetWorkload(p *workload.Profiler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workload = p
}

// RegisterMetrics exposes the collector's accounting on reg:
// ipd_timeline_samples_total, ipd_timeline_points_total,
// ipd_timeline_series, ipd_timeline_series_dropped_total,
// ipd_alerts_total{kind}, ipd_alerts_active{kind}, and
// ipd_timeline_convergence_cycles.
func (c *Collector) RegisterMetrics(reg *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = reg.Counter("ipd_timeline_samples_total",
		"End-of-cycle samples recorded into the timeline store.")
	reg.CounterFunc("ipd_timeline_points_total",
		"Raw points appended across all timeline series.", func() float64 {
			return float64(c.store.Points())
		})
	reg.GaugeFunc("ipd_timeline_series",
		"Live timeline series.", func() float64 {
			return float64(c.store.Len())
		})
	reg.CounterFunc("ipd_timeline_series_dropped_total",
		"Timeline appends refused because the series cap was reached.", func() float64 {
			return float64(c.store.DroppedSeries())
		})
	c.alertCount = map[string]*telemetry.Counter{}
	c.alertsActive = map[string]*telemetry.Gauge{}
	for _, kind := range []string{core.AlertFlap.String(), core.AlertDrift.String(),
		core.AlertExporterLoss.String(), core.AlertExporterStale.String(),
		core.AlertClockSkew.String(), core.AlertHotPrefix.String(),
		core.AlertSketchShare.String()} {
		labels := []telemetry.Label{{Name: "kind", Value: kind}}
		c.alertCount[kind] = reg.LabeledCounter("ipd_alerts_total", labels,
			"Alerts raised by the timeline analytics.")
		c.alertsActive[kind] = reg.LabeledGauge("ipd_alerts_active", labels,
			"Currently raised timeline alerts.")
	}
	c.convHist = reg.Histogram("ipd_timeline_convergence_cycles",
		"Cycles from range creation to first stable classification.",
		append([]float64(nil), convergenceBuckets[:]...))
	c.an.onConv = c.convHist.Observe
}

// ObserveEvent feeds one lifecycle event into the analytics. Chain it into
// core.Config.OnEvent after the journal:
//
//	cfg.OnEvent = func(ev core.Event) { j.Record(ev); coll.ObserveEvent(ev) }
//
// It observes the OnEvent reentrancy contract (copies what it needs, never
// calls back into the engine).
func (c *Collector) ObserveEvent(ev core.Event) {
	if ev.Kind == core.EventAlertRaised || ev.Kind == core.EventAlertCleared {
		// Our own output echoing back through the chain.
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.an.observeEvent(ev)
}

// OnCycle is the core.Config.OnCycle hook: it records the sample into the
// store, evaluates the analytics, updates the alert state, and returns the
// raised/cleared alerts for the engine to journal.
func (c *Collector) OnCycle(s core.CycleSample) []core.Alert {
	c.mu.Lock()
	defer c.mu.Unlock()

	cy, unix := s.Cycle, s.At.Unix()
	put := func(name string, v float64) { c.store.Append(name, cy, unix, v) }

	put("ranges", float64(s.Ranges))
	put("ranges_classified", float64(s.Classified))
	put("ip_states", float64(s.IPStates))
	put("cycle_seconds", s.Duration.Seconds())

	maxD, meanD := depthStats(s.Depth4)
	put("depth4_max", maxD)
	put("depth4_mean", meanD)
	maxD, meanD = depthStats(s.Depth6)
	put("depth6_max", maxD)
	put("depth6_mean", meanD)

	put("splits", float64(s.Splits))
	put("joins", float64(s.Joins))
	put("drops", float64(s.Drops))
	put("classifications", float64(s.Classifications))
	put("invalidations", float64(s.Invalidations))
	put("expirations", float64(s.Expirations))
	put("compactions", float64(s.Compactions))
	put("transitions", float64(c.an.takeTransitions()))

	put("sketch.ranges", float64(s.SketchedRanges))
	if unclassified := s.Ranges - s.Classified; unclassified > 0 {
		put("sketch.share", float64(s.SketchedRanges)/float64(unclassified))
	} else {
		put("sketch.share", 0)
	}

	if s.Governed {
		put("governor_state", float64(s.Governor.State))
		put("governor_utilization", s.Governor.Utilization)
		for _, b := range s.Governor.Budgets {
			put("governor_util_"+b.Name, b.Utilization)
		}
	}

	// Workload series are fixed-cardinality; emit them before the per-ingress
	// and per-exporter families so they keep store slots when a large topology
	// pushes the series population past the cap.
	var wstats workload.CycleStats
	if c.workload != nil {
		wstats = c.workload.TickCycle(s.Cycle)
		put("workload.records", float64(wstats.WindowRecords))
		put("workload.mass", float64(wstats.Mass))
		if len(wstats.Top) > 0 {
			put("workload.top_share", wstats.Top[0].Share)
		} else {
			put("workload.top_share", 0)
		}
		// Wall-clock latency quantiles: timeline-only, never analytics input.
		put("workload.ingest_p50_seconds", wstats.IngestP50)
		put("workload.ingest_p99_seconds", wstats.IngestP99)
		put("workload.commit_p50_seconds", wstats.CommitP50)
		put("workload.commit_p99_seconds", wstats.CommitP99)
	}

	for _, st := range s.Ingress {
		name := st.Ingress.String()
		put("ingress_share_"+name, st.Share)
		put("ingress_ranges_"+name, float64(st.Ranges))
	}

	if c.contention != nil {
		wait, acq := c.contention()
		put("ingest_lock_wait_seconds", (wait - c.lastLockWait).Seconds())
		put("ingest_lock_batches", float64(acq-c.lastLockAcq))
		c.lastLockWait, c.lastLockAcq = wait, acq
	}

	var expStats []exphealth.CycleStat
	if c.health != nil {
		expStats = c.health.Tick(s.At)
		stale, lossSum, skewMax, covMin := 0, 0.0, 0.0, 1.0
		for _, st := range expStats {
			if st.Stale {
				stale++
			}
			lossSum += st.LossFrac
			if abs := st.SkewSeconds; abs < 0 {
				abs = -abs
				if abs > skewMax {
					skewMax = abs
				}
			} else if abs > skewMax {
				skewMax = abs
			}
			if st.Coverage < covMin {
				covMin = st.Coverage
			}
			put("exporter_loss_"+st.Key, st.LossFrac)
			put("exporter_coverage_"+st.Key, st.Coverage)
		}
		put("exporters", float64(len(expStats)))
		put("exporters_stale", float64(stale))
		if n := len(expStats); n > 0 {
			put("exporter_loss_frac", lossSum/float64(n))
		} else {
			put("exporter_loss_frac", 0)
		}
		put("exporter_skew_max_seconds", skewMax)
		put("exporter_coverage_min", covMin)
	}

	if c.samples != nil {
		c.samples.Inc()
	}
	c.lastCycle, c.lastAt = s.Cycle, s.At

	alerts := c.an.evaluate(s)
	alerts = c.an.evaluateExporters(expStats, alerts)
	if c.workload != nil {
		alerts = c.an.evaluateWorkload(wstats, alerts)
	}
	c.noteAlerts(alerts, s)
	return alerts
}

// noteAlerts folds the cycle's alert decisions into the active set, the
// bounded history, and the metrics. Callers hold c.mu.
func (c *Collector) noteAlerts(alerts []core.Alert, s core.CycleSample) {
	for _, a := range alerts {
		subject := a.Prefix
		if a.Kind == core.AlertDrift {
			subject = a.Ingress.String()
		}
		kind := a.Kind.String()
		key := kind + " " + subject
		rec := AlertRecord{Kind: kind, Raise: a.Raise, Subject: subject,
			Cycle: s.Cycle, At: s.At, Reason: a.Reason.String()}
		if len(c.history) >= alertHistory {
			copy(c.history, c.history[1:])
			c.history = c.history[:alertHistory-1]
		}
		c.history = append(c.history, rec)
		if a.Raise {
			c.raised++
			c.active[key] = ActiveAlert{Kind: kind, Subject: subject,
				Since: s.Cycle, At: s.At, Reason: a.Reason.String()}
			if ctr := c.alertCount[kind]; ctr != nil {
				ctr.Inc()
			}
		} else {
			c.cleared++
			delete(c.active, key)
		}
	}
	if c.alertsActive != nil {
		counts := map[string]int64{}
		for _, aa := range c.active {
			counts[aa.Kind]++
		}
		for kind, g := range c.alertsActive {
			g.Set(counts[kind])
		}
	}
}

// depthStats reduces a depth histogram to (max populated depth, mean depth).
func depthStats(hist []int) (maxDepth, meanDepth float64) {
	total, sum := 0, 0
	maxD := 0
	for bits, n := range hist {
		if n <= 0 {
			continue
		}
		total += n
		sum += n * bits
		maxD = bits
	}
	if total == 0 {
		return 0, 0
	}
	return float64(maxD), float64(sum) / float64(total)
}

// LastCycle returns the cycle id and statistical time of the newest sample.
func (c *Collector) LastCycle() (uint64, time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastCycle, c.lastAt
}

// Alerts returns the active alerts (sorted by kind then subject) and the
// bounded raise/clear history, oldest first.
func (c *Collector) Alerts() AlertsView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := AlertsView{
		Active:  make([]ActiveAlert, 0, len(c.active)),
		History: append([]AlertRecord(nil), c.history...),
		Raised:  c.raised,
		Cleared: c.cleared,
	}
	for _, aa := range c.active {
		out.Active = append(out.Active, aa)
	}
	sort.Slice(out.Active, func(i, j int) bool {
		if out.Active[i].Kind != out.Active[j].Kind {
			return out.Active[i].Kind < out.Active[j].Kind
		}
		return out.Active[i].Subject < out.Active[j].Subject
	})
	return out
}

// Convergence returns the creation-to-first-classification histogram.
func (c *Collector) Convergence() ConvergenceView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := ConvergenceView{
		Buckets: make([]ConvergenceBucket, len(c.an.convCounts)),
		Total:   c.an.convTotal,
	}
	for i, n := range c.an.convCounts {
		if i < len(convergenceBuckets) {
			v.Buckets[i].UpperCycles = convergenceBuckets[i]
		}
		v.Buckets[i].Count = n
	}
	if c.an.convTotal > 0 {
		v.MeanCycles = c.an.convSum / float64(c.an.convTotal)
	}
	return v
}

// Window returns the windowed points of the named series (all when names is
// empty) covering cycles [from, to] (to 0 means unbounded).
func (c *Collector) Window(names []string, from, to uint64) []Series {
	return c.store.WindowAll(names, from, to)
}

// WriteCSV streams the windowed series as CSV (see Store.WriteCSV).
func (c *Collector) WriteCSV(w io.Writer, names []string, from, to uint64) error {
	return c.store.WriteCSV(w, names, from, to)
}
