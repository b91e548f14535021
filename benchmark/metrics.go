package main

import (
	"fmt"
	"sort"
)

// metricDef declares one metric; BENCHMARK.json carries the same tables
// (TestManifestMatchesDeclarations holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the system would see, one value per
// workload, measured with tracing off. The bounds are three times the widest
// spread seen over ten seeds on the reference box (README.md, "Noise"), or
// the contract's ceiling of 0.25 where the box is noisier than that: the
// counts repeat to a fraction of a percent, the timings do not.
var endToEnd = []metricDef{
	{"records_per_s", "records/s", "higher", 0.25},
	{"records_per_core_s", "records/CPU-s", "higher", 0.25},
	{"allocs_per_record", "allocs", "lower", 0.12},
	{"alloc_bytes_per_record", "B", "lower", 0.02},
	{"cycle_p50_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.03},
	{"verdict_accuracy", "share", "higher", 0.01},
	{"delivered_share", "share", "higher", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, named after the
// repo's modules. They carry no bound; they say where an end-to-end change
// came from.
var perLayer = []metricDef{
	{Name: "loadgen.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "loadgen.backpressure_share", Unit: "share", Better: "lower"},

	{Name: "netflow.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "netflow.decode_allocs_per_record", Unit: "allocs", Better: "lower"},
	{Name: "netflow.datagrams", Unit: "count", Better: "higher"},
	{Name: "netflow.records", Unit: "count", Better: "higher"},
	{Name: "netflow.malformed", Unit: "count", Better: "lower"},

	{Name: "ipfix.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "ipfix.decode_allocs_per_record", Unit: "allocs", Better: "lower"},
	{Name: "ipfix.messages", Unit: "count", Better: "higher"},
	{Name: "ipfix.records", Unit: "count", Better: "higher"},
	{Name: "ipfix.skipped", Unit: "count", Better: "lower"},

	{Name: "flow.sampler_ns_per_record", Unit: "ns", Better: "lower"},

	{Name: "queue.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "queue.depth_max", Unit: "count", Better: "lower"},
	{Name: "queue.shed", Unit: "count", Better: "lower"},
	{Name: "queue.rejected", Unit: "count", Better: "lower"},

	{Name: "stattime.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "stattime.allocs_per_record", Unit: "allocs", Better: "lower"},
	{Name: "stattime.accepted", Unit: "count", Better: "higher"},
	{Name: "stattime.dropped_stale", Unit: "count", Better: "lower"},
	{Name: "stattime.dropped_future", Unit: "count", Better: "lower"},
	{Name: "stattime.rebinned", Unit: "count", Better: "lower"},
	{Name: "stattime.buckets", Unit: "count", Better: "higher"},

	{Name: "core.observe_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "core.observe_allocs_per_record", Unit: "allocs", Better: "lower"},
	{Name: "core.classified_hit_share", Unit: "share", Better: "higher"},
	{Name: "core.v6_share", Unit: "share", Better: "higher"},
	{Name: "core.records", Unit: "count", Better: "higher"},
	{Name: "core.records_dropped", Unit: "count", Better: "lower"},

	{Name: "core.cycle_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cycle_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cycle_max_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cycle_time_share", Unit: "share", Better: "lower"},
	{Name: "core.ranges", Unit: "count", Better: "higher"},
	{Name: "core.classified_ranges", Unit: "count", Better: "higher"},
	{Name: "core.ip_states", Unit: "count", Better: "lower"},
	{Name: "core.splits", Unit: "count", Better: "lower"},
	{Name: "core.joins", Unit: "count", Better: "lower"},
	{Name: "core.drops", Unit: "count", Better: "lower"},
	{Name: "core.classifications", Unit: "count", Better: "higher"},
	{Name: "core.invalidations", Unit: "count", Better: "lower"},
	{Name: "core.expirations", Unit: "count", Better: "lower"},

	{Name: "server.lock_wait_share", Unit: "share", Better: "lower"},
	{Name: "server.batches", Unit: "count", Better: "lower"},
	{Name: "server.mean_batch_records", Unit: "count", Better: "higher"},

	{Name: "trie.lookup_table_build_ms", Unit: "ms", Better: "lower"},
	{Name: "trie.lookup_ns", Unit: "ns", Better: "lower"},

	{Name: "persist.checkpoint_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "persist.restore_ms", Unit: "ms", Better: "lower"},

	{Name: "governor.state_changes", Unit: "count", Better: "lower"},
	{Name: "governor.ip_states_peak", Unit: "count", Better: "lower"},
	{Name: "sketch.sketched_ranges_peak", Unit: "count", Better: "lower"},
	{Name: "sketch.degrades", Unit: "count", Better: "lower"},
	{Name: "sketch.hydrates", Unit: "count", Better: "lower"},

	{Name: "workload.observe_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "observers.overhead_share", Unit: "share", Better: "lower"},
	{Name: "journal.events", Unit: "count", Better: "lower"},

	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower"},

	{Name: "layers.sum_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "layers.coverage", Unit: "share", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one declared table and refuses anything
// the table does not name or names twice.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, values: map[string]metricValue{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if _, dup := m.values[name]; dup {
		panic("benchmark: metric emitted twice: " + name)
	}
	m.values[name] = metricValue{Value: v, Unit: d.Unit}
}

// complete reports the declared metrics that were never set.
func (m *metricSet) complete() error {
	var missing []string
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	return fmt.Errorf("metrics not emitted: %v", missing)
}

// ratio is a/b, or 0 when there is nothing to divide by (a layer the
// workload does not use reports zero, never NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
