package governor

import (
	"strings"
	"testing"

	"ipd/internal/telemetry"
)

func mustNew(t *testing.T, cfg Config) *Governor {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDefaultsAndValidation(t *testing.T) {
	g := mustNew(t, Config{MaxRanges: 100})
	if g.State() != StateNormal {
		t.Errorf("fresh governor state = %v, want normal", g.State())
	}
	if hc := g.Snapshot().HoldCycles; hc != HoldCycles {
		t.Errorf("snapshot HoldCycles = %d, want %d", hc, HoldCycles)
	}
	if _, err := New(Config{MaxRanges: -1}); err == nil {
		t.Error("negative budget: expected error")
	}
}

func TestUpgradeImmediateDowngradeHysteretic(t *testing.T) {
	g := mustNew(t, Config{MaxRanges: 100})

	if s := g.Evaluate(Usage{Ranges: 10}); s != StateNormal {
		t.Fatalf("calm evaluate = %v, want normal", s)
	}
	// 85% crosses DegradedFraction immediately.
	if s := g.Evaluate(Usage{Ranges: 85}); s != StateDegraded {
		t.Fatalf("85%% = %v, want degraded", s)
	}
	// 96% crosses EmergencyFraction immediately.
	if s := g.Evaluate(Usage{Ranges: 96}); s != StateEmergency {
		t.Fatalf("96%% = %v, want emergency", s)
	}
	// Fewer than HoldCycles calm cycles are not enough.
	for i := 1; i < HoldCycles; i++ {
		if s := g.Evaluate(Usage{Ranges: 10}); s != StateEmergency {
			t.Fatalf("%d calm cycles = %v, want still emergency", i, s)
		}
	}
	// The HoldCycles-th calm cycle: one step down, not straight to normal.
	if s := g.Evaluate(Usage{Ranges: 10}); s != StateDegraded {
		t.Fatalf("%d calm cycles = %v, want degraded", HoldCycles, s)
	}
	for i := 1; i < HoldCycles; i++ {
		g.Evaluate(Usage{Ranges: 10})
	}
	if s := g.Evaluate(Usage{Ranges: 10}); s != StateNormal {
		t.Fatalf("%d calm cycles = %v, want normal", 2*HoldCycles, s)
	}
	if n := g.Transitions(StateEmergency); n != 1 {
		t.Errorf("emergency transitions = %d, want 1", n)
	}
	if n := g.Transitions(StateNormal); n != 1 {
		t.Errorf("normal transitions = %d, want 1", n)
	}
}

func TestMidBandResetsHold(t *testing.T) {
	g := mustNew(t, Config{MaxRanges: 100})
	g.Evaluate(Usage{Ranges: 85}) // degraded
	for i := 1; i < HoldCycles; i++ {
		g.Evaluate(Usage{Ranges: 10}) // one short of the hold
	}
	// 70% sits between recover (60%) and degraded (80%): resets the hold.
	g.Evaluate(Usage{Ranges: 70})
	for i := 1; i < HoldCycles; i++ {
		g.Evaluate(Usage{Ranges: 10}) // one short of the hold again
	}
	if s := g.State(); s != StateDegraded {
		t.Fatalf("state = %v, want degraded (hold must have reset)", s)
	}
	if s := g.Evaluate(Usage{Ranges: 10}); s != StateNormal {
		t.Fatalf("state = %v, want normal after full hold", s)
	}
}

func TestEmergencyDoesNotSlideBackViaDegradedBand(t *testing.T) {
	g := mustNew(t, Config{MaxRanges: 100})
	g.Evaluate(Usage{Ranges: 96})
	// 85% is in the degraded band, but an emergency must not downgrade
	// until the recover threshold holds.
	if s := g.Evaluate(Usage{Ranges: 85}); s != StateEmergency {
		t.Fatalf("state = %v, want emergency retained in degraded band", s)
	}
}

func TestMultipleBudgetsWorstAxisWins(t *testing.T) {
	g := mustNew(t, Config{MaxRanges: 1000, MaxIPStates: 100})
	if s := g.Evaluate(Usage{Ranges: 10, IPStates: 99}); s != StateEmergency {
		t.Fatalf("state = %v, want emergency from ip_states axis", s)
	}
	snap := g.Snapshot()
	if snap.Utilization < 0.98 {
		t.Errorf("utilization = %v, want ~0.99", snap.Utilization)
	}
	found := false
	for _, b := range snap.Budgets {
		if b.Name == "ip_states" && b.Used == 99 && b.Max == 100 {
			found = true
		}
	}
	if !found {
		t.Errorf("snapshot budgets missing ip_states axis: %+v", snap.Budgets)
	}
}

func TestUnlimitedBudgetsNeverTrigger(t *testing.T) {
	g := mustNew(t, Config{})
	if s := g.Evaluate(Usage{Ranges: 1 << 30, IPStates: 1 << 30, QueueDepth: 1 << 30}); s != StateNormal {
		t.Fatalf("state = %v, want normal with no budgets configured", s)
	}
}

func TestProviders(t *testing.T) {
	heap := uint64(90)
	depth := 5
	g := mustNew(t, Config{
		MemBudget: 100,
		QueueCap:  10,
		ReadHeap:  func() uint64 { return heap },
		QueueDepth: func() int {
			return depth
		},
	})
	if s := g.Evaluate(Usage{}); s != StateDegraded {
		t.Fatalf("state = %v, want degraded from heap provider", s)
	}
	heap, depth = 10, 10
	if s := g.Evaluate(Usage{}); s != StateEmergency {
		t.Fatalf("state = %v, want emergency from queue provider", s)
	}
}

func TestOnTransitionAndMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	var calls []string
	g := mustNew(t, Config{
		MaxRanges: 100,
		Registry:  reg,
		OnTransition: func(from, to State, u Usage) {
			calls = append(calls, from.String()+"->"+to.String())
		},
	})
	g.Evaluate(Usage{Ranges: 96})
	g.Evaluate(Usage{Ranges: 96})
	if len(calls) != 1 || calls[0] != "normal->emergency" {
		t.Fatalf("transition calls = %v", calls)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, w := range []string{
		`ipd_governor_state 2`,
		`ipd_governor_transitions_total{to="emergency"} 1`,
		`ipd_governor_evaluations_total 2`,
	} {
		if !strings.Contains(text, w) {
			t.Errorf("metrics missing %q in:\n%s", w, text)
		}
	}
}

func TestStateTextRoundTrip(t *testing.T) {
	for _, s := range []State{StateNormal, StateDegraded, StateEmergency} {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var got State
		if err := got.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
	var s State
	if err := s.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("expected error for bogus state name")
	}
}

func TestRealHeapReader(t *testing.T) {
	// The default runtime/metrics reader must return a plausible live-heap
	// figure on any supported Go version.
	if readHeapBytes() == 0 {
		t.Error("readHeapBytes returned 0")
	}
}
