// Microbenchmarks of the hot paths (§5.7) and ablation benches for the
// design choices called out in DESIGN.md. The paper's tables and figures
// are regenerated by cmd/ipd-bench, whose output TestReproduction gates
// (see EXPERIMENTS.md).
package ipd_test

import (
	"net/netip"
	"testing"
	"time"

	"ipd"
	"ipd/internal/trafficgen"
)

// --- §5.7 hot-path microbenchmarks ---------------------------------------

// benchRecords builds a reusable synthetic record set.
func benchRecords(b *testing.B, n int) []ipd.Record {
	b.Helper()
	scn, err := trafficgen.NewScenario(trafficgen.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	gen := trafficgen.GenConfig{FlowsPerMinute: 200_000, NoiseFraction: 0.002, Seed: 1, Diurnal: false}
	records := make([]ipd.Record, 0, n)
	start := scn.Start.Add(20 * time.Hour)
	err = scn.Stream(start, start.Add(time.Duration(n/200_000+2)*time.Minute), gen, func(r ipd.Record) bool {
		records = append(records, r)
		return len(records) < n
	})
	if err != nil {
		b.Fatal(err)
	}
	return records
}

func benchConfig() ipd.Config {
	cfg := ipd.DefaultConfig()
	cfg.NCidrFactor4 = 0.01
	cfg.NCidrFloor = 4
	return cfg
}

func benchEngine(b *testing.B) *ipd.Engine {
	b.Helper()
	eng, err := ipd.NewEngine(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// observeAttachment hooks one observer into cfg and returns what it does
// per record next to Observe (nil when everything hangs off the Config).
type observeAttachment func(b *testing.B, cfg *ipd.Config) (perRecord func(ipd.Record))

func chainOnEvent(cfg *ipd.Config, fn func(ipd.Event)) {
	prev := cfg.OnEvent
	cfg.OnEvent = func(ev ipd.Event) {
		if prev != nil {
			prev(ev)
		}
		fn(ev)
	}
}

// Observe itself never emits events (only stage-2 cycles do), so the
// journal adds only the reentrancy guard.
func attachJournal(_ *testing.B, cfg *ipd.Config) func(ipd.Record) {
	chainOnEvent(cfg, ipd.NewJournal(ipd.JournalOptions{}).Record)
	return nil
}

// The timeline collector rides behind the journal on OnEvent and samples on
// OnCycle: per record, the guard and the cycle-gate check.
func attachTimeline(b *testing.B, cfg *ipd.Config) func(ipd.Record) {
	attachJournal(b, cfg)
	coll := ipd.NewTimelineCollector(ipd.TimelineOptions{})
	chainOnEvent(cfg, coll.ObserveEvent)
	cfg.OnCycle = coll.OnCycle
	return nil
}

// Budgets generous enough that the governor stays in the normal state: what
// every governed deployment pays when nothing is wrong.
func attachGovernor(b *testing.B, cfg *ipd.Config) func(ipd.Record) {
	gov, err := ipd.NewGovernor(ipd.GovernorConfig{MaxRanges: 1 << 20, MaxIPStates: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	cfg.Governor, cfg.MaxRanges, cfg.MaxIPStates = gov, 1<<20, 1<<30
	return nil
}

// The way cmd/ipd wires the tracker for trace input: per-record rate
// accounting plus the coverage provider consulted at classification time.
func attachExporterHealth(_ *testing.B, cfg *ipd.Config) func(ipd.Record) {
	health := ipd.NewExporterHealth(ipd.ExporterHealthOptions{})
	cfg.Coverage = health.IngressCoverage
	return func(rec ipd.Record) { health.ObserveRecord(rec.In.Router) }
}

// One atomic add per record, fed as a one-record batch; one in SampleN
// (default 16) also takes the profiler lock for the heavy-hitter update.
func attachWorkload(*testing.B, *ipd.Config) func(ipd.Record) {
	p := ipd.NewWorkloadProfiler(ipd.WorkloadOptions{})
	return func(rec ipd.Record) { p.ObserveBatch([]ipd.Record{rec}) }
}

// The sketch tier enabled but idle (no governor pressure, so no range
// degrades): the first-seen probe on each mint.
func attachSketch(_ *testing.B, cfg *ipd.Config) func(ipd.Record) {
	cfg.Sketch = true
	return nil
}

// BenchmarkObserve measures the per-record cost of stage 1 (mask + LPM +
// counter update) bare and with each observer an operator can attach, one
// sub-benchmark per row, the last with all of them at once. It times a cold
// two-root engine; the converged regime is what `go run ./benchmark`
// measures.
func BenchmarkObserve(b *testing.B) {
	// traced rows set the default 1-in-1024 span sampling; without a tracer
	// Observe pays one nil check.
	rows := []struct {
		name   string
		attach []observeAttachment
		traced bool
	}{
		{"bare", nil, false},
		{"journaled", []observeAttachment{attachJournal}, false},
		{"timeline", []observeAttachment{attachTimeline}, false},
		{"traced", nil, true},
		{"governed", []observeAttachment{attachGovernor}, false},
		{"exphealth", []observeAttachment{attachExporterHealth}, false},
		{"workload", []observeAttachment{attachWorkload}, false},
		{"sketched", []observeAttachment{attachSketch}, false},
		{"all-attached", []observeAttachment{attachTimeline, attachGovernor,
			attachExporterHealth, attachWorkload, attachSketch}, true},
	}
	records := benchRecords(b, 500_000)
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			cfg := benchConfig()
			var perRecord []func(ipd.Record)
			for _, attach := range row.attach {
				if fn := attach(b, &cfg); fn != nil {
					perRecord = append(perRecord, fn)
				}
			}
			eng, err := ipd.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if row.traced {
				eng.SetTracer(ipd.NewTracer(ipd.TracerOptions{}))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := records[i%len(records)]
				for _, fn := range perRecord {
					fn(rec)
				}
				eng.Observe(rec)
			}
			b.ReportMetric(float64(eng.RangeCount()), "ranges")
		})
	}
}

// BenchmarkLPMLookup measures the validation-path lookups (§5.1 rebuilds an
// LPM table every 5 minutes and classifies every flow against it).
func BenchmarkLPMLookup(b *testing.B) {
	records := benchRecords(b, 200_000)
	eng := benchEngine(b)
	for _, rec := range records {
		eng.Observe(rec)
		eng.AdvanceTo(eng.Now())
	}
	eng.ForceCycle()
	table := eng.LookupTable()
	addrs := make([]netip.Addr, 4096)
	for i := range addrs {
		addrs[i] = records[i*37%len(records)].Src
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Lookup(addrs[i%len(addrs)])
	}
}

// --- Ablation benches (design choices from DESIGN.md) --------------------

// ablationRecords builds a workload at a realistic cycle density (5000
// records/min over 60 virtual minutes = 60 stage-2 cycles).
func ablationRecords(b *testing.B) []ipd.Record {
	b.Helper()
	scn, err := trafficgen.NewScenario(trafficgen.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	gen := trafficgen.GenConfig{FlowsPerMinute: 5000, NoiseFraction: 0.002, Seed: 1, Diurnal: false}
	start := scn.Start.Add(20 * time.Hour)
	var records []ipd.Record
	if err := scn.Stream(start, start.Add(time.Hour), gen, func(r ipd.Record) bool {
		records = append(records, r)
		return true
	}); err != nil {
		b.Fatal(err)
	}
	return records
}

// ablationRun feeds a fixed workload and reports classification outcomes.
func ablationRun(b *testing.B, mutate func(*ipd.Config)) {
	b.Helper()
	records := ablationRecords(b)
	for i := 0; i < b.N; i++ {
		cfg := ipd.DefaultConfig()
		cfg.NCidrFactor4 = 0.01
		cfg.NCidrFloor = 4
		mutate(&cfg)
		eng, err := ipd.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range records {
			eng.Observe(rec)
			eng.AdvanceTo(eng.Now())
		}
		eng.ForceCycle()
		st := eng.Stats()
		b.ReportMetric(float64(st.Classifications), "classifications")
		b.ReportMetric(float64(eng.RangeCount()), "ranges")
		b.ReportMetric(float64(len(eng.Mapped())), "mapped")
	}
}

// Flow counts (deployment simplification) vs byte counts.
func BenchmarkAblationCountersFlow(b *testing.B) {
	ablationRun(b, func(cfg *ipd.Config) { cfg.CountBytes = false })
}

func BenchmarkAblationCountersByte(b *testing.B) {
	ablationRun(b, func(cfg *ipd.Config) { cfg.CountBytes = true })
}

// Per-IP state redistribution on split (deployment) vs restarting children
// empty.
func BenchmarkAblationSplitKeepState(b *testing.B) {
	ablationRun(b, func(cfg *ipd.Config) { cfg.KeepIPStateOnSplit = true })
}

func BenchmarkAblationSplitDropState(b *testing.B) {
	ablationRun(b, func(cfg *ipd.Config) { cfg.KeepIPStateOnSplit = false })
}

// Decay of idle classified ranges on/off.
func BenchmarkAblationDecayOn(b *testing.B) {
	ablationRun(b, func(cfg *ipd.Config) { cfg.NoDecay = false })
}

func BenchmarkAblationDecayOff(b *testing.B) {
	ablationRun(b, func(cfg *ipd.Config) { cfg.NoDecay = true })
}

// Bundle folding on/off: without folding, LAG traffic splits across member
// interfaces and ranges behind bundles cannot reach q.
func BenchmarkAblationBundleFoldingOn(b *testing.B) {
	scn, err := trafficgen.NewScenario(trafficgen.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	ablationBundleRun(b, scn, true)
}

func BenchmarkAblationBundleFoldingOff(b *testing.B) {
	scn, err := trafficgen.NewScenario(trafficgen.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	ablationBundleRun(b, scn, false)
}

func ablationBundleRun(b *testing.B, scn *trafficgen.Scenario, fold bool) {
	b.Helper()
	gen := trafficgen.GenConfig{FlowsPerMinute: 5000, NoiseFraction: 0.002, Seed: 1, Diurnal: false}
	start := scn.Start.Add(20 * time.Hour)
	var records []ipd.Record
	if err := scn.Stream(start, start.Add(30*time.Minute), gen, func(r ipd.Record) bool {
		records = append(records, r)
		return true
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cfg := ipd.DefaultConfig()
		cfg.NCidrFactor4 = 0.01
		cfg.NCidrFloor = 4
		if fold {
			cfg.Mapper = scn.Topo
		}
		eng, err := ipd.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range records {
			eng.Observe(rec)
			eng.AdvanceTo(eng.Now())
		}
		eng.ForceCycle()
		b.ReportMetric(float64(len(eng.Mapped())), "mapped")
		b.ReportMetric(float64(eng.Stats().Splits), "splits")
	}
}
