package core

import (
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"ipd/internal/telemetry"
	"ipd/internal/trace"
)

func scrape(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func getStatus(t *testing.T, w *Watchdog, path string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h := w.HealthzHandler()
	if path == "/readyz" {
		h = w.ReadyzHandler()
	}
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code
}

// TestWatchdogStallFlipsHealthz drives an artificially stalled pipeline: a
// healthy watchdog whose cycles stop arriving must flip /healthz to 503 once
// the stall window (stallFactor * Interval) elapses.
func TestWatchdogStallFlipsHealthz(t *testing.T) {
	clock := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	now := func() time.Time { mu.Lock(); defer mu.Unlock(); return clock }
	advance := func(d time.Duration) { mu.Lock(); clock = clock.Add(d); mu.Unlock() }

	reg := telemetry.NewRegistry()
	w, err := NewWatchdog(WatchdogConfig{Interval: time.Minute, Registry: reg, Now: now})
	if err != nil {
		t.Fatal(err)
	}

	// Freshly armed: alive, ready.
	if got := getStatus(t, w, "/healthz"); got != 200 {
		t.Errorf("fresh /healthz = %d, want 200", got)
	}
	if got := getStatus(t, w, "/readyz"); got != 200 {
		t.Errorf("fresh /readyz = %d, want 200", got)
	}

	// A quick cycle completes; still healthy after a normal interval.
	w.ObserveSpan(trace.Span{Phase: trace.PhaseCycle, Cycle: 1, Wall: time.Second})
	advance(time.Minute)
	if got := getStatus(t, w, "/healthz"); got != 200 {
		t.Errorf("/healthz after one quiet interval = %d, want 200", got)
	}
	if !strings.Contains(scrape(t, reg), "ipd_watchdog_stalled 0") {
		t.Error("ipd_watchdog_stalled should read 0 while healthy")
	}

	// No further cycle: past stallFactor(3) * Interval the pipeline counts
	// as stalled and both probes flip.
	advance(2*time.Minute + time.Second)
	if got := getStatus(t, w, "/healthz"); got != 503 {
		t.Errorf("stalled /healthz = %d, want 503", got)
	}
	if got := getStatus(t, w, "/readyz"); got != 503 {
		t.Errorf("stalled /readyz = %d, want 503", got)
	}
	out := scrape(t, reg)
	if !strings.Contains(out, "ipd_watchdog_stalled 1") {
		t.Errorf("ipd_watchdog_stalled should read 1 when stalled:\n%s", out)
	}

	// A new cycle recovers liveness.
	w.ObserveSpan(trace.Span{Phase: trace.PhaseCycle, Cycle: 2, Wall: time.Second})
	if got := getStatus(t, w, "/healthz"); got != 200 {
		t.Errorf("recovered /healthz = %d, want 200", got)
	}

	// Non-cycle spans must not feed the watchdog.
	advance(4 * time.Minute)
	w.ObserveSpan(trace.Span{Phase: trace.PhaseObserve, Wall: time.Microsecond})
	if got := getStatus(t, w, "/healthz"); got != 503 {
		t.Errorf("/healthz = %d after only non-cycle spans, want 503", got)
	}
}

// TestWatchdogOverrunFlipsReadyz checks the overrun side: a cycle exceeding
// maxCycleFraction * Interval increments ipd_cycle_overrun_total and drops
// readiness while leaving liveness intact.
func TestWatchdogOverrunFlipsReadyz(t *testing.T) {
	reg := telemetry.NewRegistry()
	w, err := NewWatchdog(WatchdogConfig{Interval: time.Minute, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	// 55s > 0.8 * 60s: overrun.
	w.ObserveSpan(trace.Span{Phase: trace.PhaseCycle, Cycle: 1, Wall: 55 * time.Second})
	if got := getStatus(t, w, "/healthz"); got != 200 {
		t.Errorf("overrun /healthz = %d, want 200 (overrun is not a stall)", got)
	}
	if got := getStatus(t, w, "/readyz"); got != 503 {
		t.Errorf("overrun /readyz = %d, want 503", got)
	}
	if !strings.Contains(scrape(t, reg), "ipd_cycle_overrun_total 1") {
		t.Error("ipd_cycle_overrun_total should read 1 after one overrun")
	}

	// The next in-budget cycle restores readiness; the counter keeps its
	// history.
	w.ObserveSpan(trace.Span{Phase: trace.PhaseCycle, Cycle: 2, Wall: time.Second})
	if got := getStatus(t, w, "/readyz"); got != 200 {
		t.Errorf("recovered /readyz = %d, want 200", got)
	}
	if !strings.Contains(scrape(t, reg), "ipd_cycle_overrun_total 1") {
		t.Error("ipd_cycle_overrun_total must be cumulative")
	}
}

func TestWatchdogConfigValidation(t *testing.T) {
	if _, err := NewWatchdog(WatchdogConfig{}); err == nil {
		t.Error("zero Interval must be rejected")
	}
}

// TestEngineCyclePhaseSpans wires a real tracer into a real engine and
// verifies every stage-2 cycle emits the six phase spans plus the umbrella
// cycle span, in phase order, all carrying the same cycle id — and that the
// watchdog, subscribed as the OnSpan hook, sees the overrun of an
// artificially tiny bucket interval.
func TestEngineCyclePhaseSpans(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := trace.New(trace.Options{Capacity: 256, SampleN: 1, Registry: reg})
	// T = 1ns makes every real cycle an overrun (wall > 0.8ns) without
	// faking spans; the engine still runs exactly one forced cycle.
	cfg := DefaultConfig()
	cfg.T = time.Nanosecond
	cfg.E = time.Nanosecond
	cfg.NCidrFactor4 = 0.01
	cfg.NCidrFloor = 4
	w, err := NewWatchdog(WatchdogConfig{Interval: cfg.T, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetOnSpan(w.ObserveSpan)

	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetTracer(tr)
	feedN(eng, base, netip.MustParseAddr("10.0.0.0"), 64, inA)
	eng.ForceCycle()

	spans := tr.Recorder().Tail(0)
	var phases []trace.Phase
	var cycleSpan *trace.Span
	for i, sp := range spans {
		if sp.Phase == trace.PhaseObserve {
			continue // sampled stage-1 spans ride along
		}
		if sp.Cycle != 1 {
			t.Errorf("span %v carries cycle %d, want 1", sp.Phase, sp.Cycle)
		}
		phases = append(phases, sp.Phase)
		if sp.Phase == trace.PhaseCycle {
			cycleSpan = &spans[i]
		}
	}
	want := []trace.Phase{trace.PhaseSnapshot, trace.PhaseDecay, trace.PhaseClassify,
		trace.PhaseSplit, trace.PhaseJoin, trace.PhaseDrop, trace.PhaseCycle}
	if len(phases) != len(want) {
		t.Fatalf("cycle emitted phases %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("cycle emitted phases %v, want %v", phases, want)
		}
	}
	if cycleSpan.Ranges != int64(eng.RangeCount()) {
		t.Errorf("cycle span ranges = %d, want active count %d", cycleSpan.Ranges, eng.RangeCount())
	}

	// The 1ns interval makes the real cycle an overrun: the watchdog saw it.
	if w.Ready() {
		t.Error("watchdog ready after a cycle that overran a 1ns interval")
	}
	if !strings.Contains(scrape(t, reg), "ipd_cycle_overrun_total 1") {
		t.Error("ipd_cycle_overrun_total should read 1 after the overrun cycle")
	}
	// And the per-phase histograms populated.
	if !strings.Contains(scrape(t, reg), `ipd_phase_duration_seconds_count{phase="cycle"} 1`) {
		t.Errorf("per-phase histogram missing the cycle observation:\n%s", scrape(t, reg))
	}
}
