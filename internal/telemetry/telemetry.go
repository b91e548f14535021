// Package telemetry is the stdlib-only runtime metrics substrate of the IPD
// reproduction: lock-free counters, gauges, and fixed-bucket histograms that
// the hot paths (stage-1 Observe, stage-2 cycles, the statistical-time
// binner, the flow codecs) update with single atomic operations, plus a
// Registry that exposes everything in Prometheus text format
// (text/plain; version=0.0.4) and as an expvar-style JSON dump.
//
// The design follows the paper's Appendix A, which treats stage-2 cycle
// runtime and active-range growth as first-class evaluation metrics: every
// quantity the appendix plots is a metric here, so a running collector can
// be scraped instead of re-run.
//
// Metric values live in the metric objects themselves (zero values are ready
// to use), not in the registry; registration only attaches a name and help
// text for exposition. This keeps snapshot reads — and scrapes — entirely
// free of locks shared with ingest: readers load the same atomics the hot
// path writes, and never touch a mutex the writer holds.
package telemetry

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus mold:
// observations are counted into the first bucket whose upper bound is >= the
// value, with an implicit +Inf bucket, and sum/count totals. All updates are
// atomic; Observe is wait-free except for the float sum, which uses a CAS
// loop (uncontended in practice: one observation per stage-2 cycle).
type Histogram struct {
	upper  []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds. A trailing +Inf bound is implied and must not be passed.
func NewHistogram(upper []float64) *Histogram {
	bounds := make([]float64, len(upper))
	copy(bounds, upper)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{upper: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// DurationBuckets returns the default bounds for cycle-runtime histograms:
// 100µs to ~100s, one bucket per half decade. The deployment's stage-2
// cycles run in single-digit seconds (Appendix A); laptop-scale runs sit in
// the sub-millisecond buckets.
func DurationBuckets() []float64 {
	return []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10, 30, 100}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// bucket returns the index of the first bucket whose upper bound is >= v.
func (h *Histogram) bucket(v float64) int {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	return i
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramBatch collects observations for one histogram in plain memory and
// adds them with Flush, so a single-writer hot path pays the histogram's
// atomics once per batch. Not safe for concurrent use.
type HistogramBatch struct {
	h      *Histogram
	counts []uint64
	sum    float64
}

// Batch returns an empty batch that flushes into h.
func (h *Histogram) Batch() *HistogramBatch {
	return &HistogramBatch{h: h, counts: make([]uint64, len(h.counts))}
}

// Observe records one value in the batch.
func (b *HistogramBatch) Observe(v float64) {
	b.counts[b.h.bucket(v)]++
	b.sum += v
}

// Flush adds the collected observations to the histogram.
func (b *HistogramBatch) Flush() {
	var n uint64
	for i, c := range b.counts {
		if c != 0 {
			b.h.counts[i].Add(c)
			b.counts[i] = 0
			n += c
		}
	}
	if n != 0 {
		b.h.count.Add(n)
		b.h.addSum(b.sum)
		b.sum = 0
	}
}

// HistogramSnapshot is a consistent-enough point-in-time read of a
// histogram (fields are loaded individually; a scrape racing an Observe may
// be off by one observation, which Prometheus semantics allow).
type HistogramSnapshot struct {
	// Upper are the bucket upper bounds (without +Inf).
	Upper []float64
	// Cumulative are the cumulative counts per bound, ending with the +Inf
	// total (len(Upper)+1 entries).
	Cumulative []uint64
	Count      uint64
	Sum        float64
}

// Snapshot returns the current bucket counts, total count, and sum.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Upper:      h.upper,
		Cumulative: make([]uint64, len(h.counts)),
		Count:      h.count.Load(),
		Sum:        math.Float64frombits(h.sum.Load()),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Cumulative[i] = cum
	}
	return s
}

// kind discriminates registered metric types for exposition.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// Label is one name/value pair attached to a labeled metric. Values may
// contain any bytes; exposition escapes them per the text format.
type Label struct {
	Name  string
	Value string
}

// metric is one registered exposition entry. name is the full series key
// (family plus rendered labels); family and labels are kept separately so
// exposition can emit HELP/TYPE once per family and splice extra labels
// (histogram le) into sample lines.
type metric struct {
	name   string // full key: family{label="value",...}, or family if unlabeled
	family string
	labels []Label
	help   string
	kind   kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// labelString renders labels as they appear inside braces: a="b",c="d",
// with label values escaped.
func labelString(labels []Label) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// seriesKey renders the full metric key used for registry identity, sorting,
// and the JSON dump.
func seriesKey(family string, labels []Label) string {
	if len(labels) == 0 {
		return family
	}
	return family + "{" + labelString(labels) + "}"
}

// Registry names metrics for exposition. Get-or-create accessors make
// wiring idempotent: two packages asking for the same counter name share
// the same underlying atomic. Registration takes the registry mutex;
// metric updates and value reads never do.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	ordered []*metric // insertion order; exposition sorts by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) lookup(name string, k kind) *metric {
	m := r.byName[name]
	if m == nil {
		return nil
	}
	if m.kind != k {
		panic("telemetry: metric " + name + " re-registered with a different type")
	}
	return m
}

func (r *Registry) add(m *metric) {
	r.byName[m.name] = m
	r.ordered = append(r.ordered, m)
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, kindCounter); m != nil {
		return m.counter
	}
	m := &metric{name: name, family: name, help: help, kind: kindCounter, counter: new(Counter)}
	r.add(m)
	return m.counter
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, kindGauge); m != nil {
		return m.gauge
	}
	m := &metric{name: name, family: name, help: help, kind: kindGauge, gauge: new(Gauge)}
	r.add(m)
	return m.gauge
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds if needed (bounds are ignored for an existing metric).
func (r *Registry) Histogram(name, help string, upper []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(name, kindHistogram); m != nil {
		return m.hist
	}
	m := &metric{name: name, family: name, help: help, kind: kindHistogram, hist: NewHistogram(upper)}
	r.add(m)
	return m.hist
}

// labeledMetric is the shared get-or-create path for the Labeled* accessors.
// Identity is the full series key, so the same family with different label
// values yields distinct metrics while repeat calls share one.
func (r *Registry) labeled(family string, labels []Label, help string, k kind, mk func() *metric) *metric {
	key := seriesKey(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(key, k); m != nil {
		return m
	}
	m := mk()
	m.name = key
	m.family = family
	m.labels = append([]Label(nil), labels...)
	m.help = help
	m.kind = k
	r.add(m)
	return m
}

// LabeledCounter returns the counter for family with the given labels,
// creating it if needed. Exposition emits HELP/TYPE once per family and
// escapes label values.
func (r *Registry) LabeledCounter(family string, labels []Label, help string) *Counter {
	return r.labeled(family, labels, help, kindCounter,
		func() *metric { return &metric{counter: new(Counter)} }).counter
}

// LabeledGauge returns the gauge for family with the given labels, creating
// it if needed.
func (r *Registry) LabeledGauge(family string, labels []Label, help string) *Gauge {
	return r.labeled(family, labels, help, kindGauge,
		func() *metric { return &metric{gauge: new(Gauge)} }).gauge
}

// LabeledHistogram returns the histogram for family with the given labels,
// creating it with the given bounds if needed (bounds are ignored for an
// existing metric). Bucket lines splice le after the series labels.
func (r *Registry) LabeledHistogram(family string, labels []Label, help string, upper []float64) *Histogram {
	return r.labeled(family, labels, help, kindHistogram,
		func() *metric { return &metric{hist: NewHistogram(upper)} }).hist
}

// RegisterCounter registers an externally allocated counter (e.g. a struct
// field, so a package's hot-path counters share cache lines). It panics if
// name is already registered.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] != nil {
		panic("telemetry: metric " + name + " already registered")
	}
	r.add(&metric{name: name, family: name, help: help, kind: kindCounter, counter: c})
}

// RegisterGauge registers an externally allocated gauge. It panics if name
// is already registered.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] != nil {
		panic("telemetry: metric " + name + " already registered")
	}
	r.add(&metric{name: name, family: name, help: help, kind: kindGauge, gauge: g})
}

// RegisterHistogram registers an externally allocated histogram. It panics
// if name is already registered.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] != nil {
		panic("telemetry: metric " + name + " already registered")
	}
	r.add(&metric{name: name, family: name, help: help, kind: kindHistogram, hist: h})
}

// CounterFunc registers a counter whose value is computed at scrape time
// (for externally maintained atomics, e.g. the UDP collector counters).
// fn must be safe for concurrent use and monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lookup(name, kindCounterFunc) != nil {
		return
	}
	r.add(&metric{name: name, family: name, help: help, kind: kindCounterFunc, fn: fn})
}

// GaugeFunc registers a gauge computed at scrape time. fn must be safe for
// concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lookup(name, kindGaugeFunc) != nil {
		return
	}
	r.add(&metric{name: name, family: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// snapshotMetrics returns the registered metrics sorted by name. The copy is
// taken under the lock; value reads happen outside it.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	out := make([]*metric, len(r.ordered))
	copy(out, r.ordered)
	r.mu.Unlock()
	// Insertion sort keeps this dependency-free and the metric count is
	// small (tens).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].name < out[j-1].name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
