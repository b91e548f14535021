package telemetry

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("Counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if g.Value() != -3 {
		t.Errorf("Gauge = %d, want -3", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 1, 2, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// 0.5 and 1 land in le=1; 2 in le=10; 100 only in +Inf.
	if got, want := s.Cumulative[0], uint64(2); got != want {
		t.Errorf("le=1 cumulative = %d, want %d", got, want)
	}
	if got, want := s.Cumulative[1], uint64(3); got != want {
		t.Errorf("le=10 cumulative = %d, want %d", got, want)
	}
	if got, want := s.Cumulative[2], uint64(4); got != want {
		t.Errorf("+Inf cumulative = %d, want %d", got, want)
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	if math.Abs(s.Sum-103.5) > 1e-9 {
		t.Errorf("sum = %v, want 103.5", s.Sum)
	}
}

func TestHistogramBatch(t *testing.T) {
	direct, batched := NewHistogram([]float64{1, 10}), NewHistogram([]float64{1, 10})
	batch := batched.Batch()
	for _, v := range []float64{0.5, 1, 2, 100} {
		direct.Observe(v)
		batch.Observe(v)
	}
	if batched.Snapshot().Count != 0 {
		t.Error("observations visible before Flush")
	}
	batch.Flush()
	batch.Flush() // an empty batch adds nothing
	batch.Observe(7)
	direct.Observe(7)
	batch.Flush()
	if d, b := direct.Snapshot(), batched.Snapshot(); !reflect.DeepEqual(d, b) {
		t.Errorf("batched histogram = %+v, want %+v", b, d)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "ignored")
	if a != b {
		t.Error("same name must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("type clash must panic")
		}
	}()
	r.Gauge("x_total", "wrong type")
}

// TestPrometheusGolden pins the exact exposition bytes: stable name
// ordering, HELP escaping, TYPE lines, histogram bucket/sum/count suffixes.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	// Registered deliberately out of name order to prove sorting.
	r.Gauge("ipd_active_ranges", "Active ranges after the last stage-2 cycle.").Set(12)
	c := r.Counter("ipd_records_total", "Accepted flow records.\nMulti-line with a back\\slash.")
	c.Add(1234)
	h := r.Histogram("ipd_cycle_duration_seconds", "Stage-2 cycle wall-clock runtime.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.02)
	r.GaugeFunc("ipd_build_info", "Constant 1.", func() float64 { return 1 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ipd_active_ranges Active ranges after the last stage-2 cycle.
# TYPE ipd_active_ranges gauge
ipd_active_ranges 12
# HELP ipd_build_info Constant 1.
# TYPE ipd_build_info gauge
ipd_build_info 1
# HELP ipd_cycle_duration_seconds Stage-2 cycle wall-clock runtime.
# TYPE ipd_cycle_duration_seconds histogram
ipd_cycle_duration_seconds_bucket{le="0.001"} 2
ipd_cycle_duration_seconds_bucket{le="0.01"} 2
ipd_cycle_duration_seconds_bucket{le="+Inf"} 3
ipd_cycle_duration_seconds_sum 0.021
ipd_cycle_duration_seconds_count 3
# HELP ipd_records_total Accepted flow records.\nMulti-line with a back\\slash.
# TYPE ipd_records_total counter
ipd_records_total 1234
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestLabeledMetrics pins the labeled exposition: HELP/TYPE once per family,
// series sorted and contiguous, histogram buckets splicing le after the
// series labels.
func TestLabeledMetrics(t *testing.T) {
	r := NewRegistry()
	r.LabeledCounter("ipd_events_total", []Label{{Name: "kind", Value: "split"}}, "Lifecycle events.").Add(3)
	r.LabeledCounter("ipd_events_total", []Label{{Name: "kind", Value: "join"}}, "Lifecycle events.").Add(1)
	h := r.LabeledHistogram("ipd_phase_duration_seconds",
		[]Label{{Name: "phase", Value: "classify"}}, "Phase durations.", []float64{0.01})
	h.Observe(0.001)
	r.LabeledGauge("ipd_stage_depth", []Label{{Name: "stage", Value: "1"}}, "Depth.").Set(5)

	// Repeat registration returns the same underlying metric.
	again := r.LabeledCounter("ipd_events_total", []Label{{Name: "kind", Value: "split"}}, "ignored")
	if again.Value() != 3 {
		t.Errorf("repeat LabeledCounter = %d, want the original (3)", again.Value())
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ipd_events_total Lifecycle events.
# TYPE ipd_events_total counter
ipd_events_total{kind="join"} 1
ipd_events_total{kind="split"} 3
# HELP ipd_phase_duration_seconds Phase durations.
# TYPE ipd_phase_duration_seconds histogram
ipd_phase_duration_seconds_bucket{phase="classify",le="0.01"} 1
ipd_phase_duration_seconds_bucket{phase="classify",le="+Inf"} 1
ipd_phase_duration_seconds_sum{phase="classify"} 0.001
ipd_phase_duration_seconds_count{phase="classify"} 1
# HELP ipd_stage_depth Depth.
# TYPE ipd_stage_depth gauge
ipd_stage_depth{stage="1"} 5
`
	if b.String() != want {
		t.Errorf("labeled exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestLabelValueEscaping pins the 0.0.4 text-format escaping of label
// values: backslash, double quote, and newline must all be escaped or the
// exposition is corrupt.
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.LabeledCounter("weird_total", []Label{
		{Name: "path", Value: `C:\traces`},
		{Name: "quote", Value: `say "hi"`},
		{Name: "multi", Value: "a\nb"},
	}, "").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE weird_total counter\n" +
		`weird_total{path="C:\\traces",quote="say \"hi\"",multi="a\nb"} 1` + "\n"
	if b.String() != want {
		t.Errorf("escaped exposition mismatch:\n got: %q\nwant: %q", b.String(), want)
	}
	// The sample line must stay a single physical line with balanced quotes.
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Errorf("exposition has %d lines, want 2 (newline leaked unescaped)", len(lines))
	}
	if got := strings.Count(lines[1], `"`) - strings.Count(lines[1], `\"`); got != 6 {
		t.Errorf("unescaped quote count = %d, want 6 (three label values)", got)
	}

	if got := escapeLabelValue("plain"); got != "plain" {
		t.Errorf("plain value escaped to %q", got)
	}
}

func TestJSONDumpParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	r.Gauge("b", "").Set(-1)
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)
	r.GaugeFunc("f", "", func() float64 { return math.Inf(1) })

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("JSON dump does not parse: %v\n%s", err, b.String())
	}
	if out["a_total"] != float64(3) || out["b"] != float64(-1) {
		t.Errorf("unexpected values: %v", out)
	}
	if out["f"] != "+Inf" {
		t.Errorf("non-finite func value = %v, want \"+Inf\" string", out["f"])
	}
	h, ok := out["h_seconds"].(map[string]any)
	if !ok || h["count"] != float64(1) {
		t.Errorf("histogram dump = %v", out["h_seconds"])
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// TestConcurrentUpdatesAndScrapes must stay race-clean: hot-path updates
// race scrapes by design.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", DurationBuckets())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10_000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%7) * 1e-3)
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 40_000 {
		t.Errorf("counter = %d, want 40000", c.Value())
	}
	if s := h.Snapshot(); s.Count != 40_000 {
		t.Errorf("histogram count = %d, want 40000", s.Count)
	}
}
