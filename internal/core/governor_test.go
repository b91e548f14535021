package core

import (
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"ipd/internal/governor"
)

// probe issues one GET against h and returns the body and status code.
func probe(t *testing.T, h http.Handler) (string, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	return rec.Body.String(), rec.Code
}

// feedMixed feeds n records whose sources land in n distinct /28 blocks
// (one per cidr_max mask, so each mints its own per-IP entry) above
// srcBase, alternating between two ingresses so the covering range stays
// mixed (share 0.5) and can never classify — the shape of spoofed-source
// scan traffic.
func feedMixed(e *Engine, ts time.Time, srcBase netip.Addr, n int) {
	a4 := srcBase.As4()
	for i := 0; i < n; i++ {
		a4[3] = byte(i % 16 * 16)
		a4[2] = byte(i / 16)
		in := inA
		if i%2 == 1 {
			in = inB
		}
		e.Observe(rec(ts, netip.AddrFrom4(a4).String(), in))
	}
}

// feedScan feeds n records whose sources scatter across the whole v4 space
// (distinct high octets), alternating ingresses, so every range on the
// traffic path stays mixed and wants to split.
func feedScan(e *Engine, ts time.Time, n, salt int) {
	for i := 0; i < n; i++ {
		j := i + salt*n
		a4 := [4]byte{byte(j * 13), byte(j * 7), byte(j), 1}
		in := inA
		if i%2 == 1 {
			in = inB
		}
		e.Observe(rec(ts, netip.AddrFrom4(a4).String(), in))
	}
}

// TestMaxRangesHardCap pins the unconditional range budget: scan traffic
// that wants to split everywhere may never push the active-range count past
// Config.MaxRanges, and the refused splits are accounted.
func TestMaxRangesHardCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxRanges = 6
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		feedScan(e, base.Add(time.Duration(c)*time.Minute), 400, c)
		e.AdvanceTo(base.Add(time.Duration(c+1) * time.Minute))
		if got := e.RangeCount(); got > cfg.MaxRanges {
			t.Fatalf("cycle %d: RangeCount = %d, exceeds MaxRanges %d", c+1, got, cfg.MaxRanges)
		}
	}
	if e.tel.splitsDeferred.Value() == 0 {
		t.Error("no splits deferred; scan traffic too weak to test the cap")
	}
}

// TestMaxIPStatesCap pins the per-IP budget: at the cap, stage 1 stops
// minting entries for unseen addresses but keeps counting range-level votes.
func TestMaxIPStatesCap(t *testing.T) {
	cfg := testConfig()
	cfg.MaxIPStates = 50
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedMixed(e, base, netip.MustParseAddr("10.0.0.0"), 120)
	if got := e.IPStateCount(); got != 50 {
		t.Errorf("IPStateCount = %d, want 50 (the cap)", got)
	}
	if got := e.tel.ipStatesSkipped.Value(); got != 70 {
		t.Errorf("ipStatesSkipped = %d, want 70", got)
	}
	// Range-level counting continued past the cap.
	if rs := rangeAt(e, netip.MustParseAddr("10.0.0.0")); rs.total != 120 {
		t.Errorf("range total = %v, want 120 (votes past the cap still count)", rs.total)
	}
}

// governedEngine builds a testConfig engine whose governor budgets 360
// per-IP entries, collecting all events.
func governedEngine(t *testing.T) (*Engine, *governor.Governor, *[]Event) {
	t.Helper()
	g, err := governor.New(governor.Config{MaxIPStates: 360})
	if err != nil {
		t.Fatal(err)
	}
	events := &[]Event{}
	cfg := testConfig()
	cfg.Governor = g
	cfg.OnEvent = func(ev Event) { *events = append(*events, ev) }
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, g, events
}

// governorTrail extracts the governor state names from an event sequence.
func governorTrail(events []Event) []string {
	var trail []string
	for _, ev := range events {
		if ev.Kind == EventGovernor {
			trail = append(trail, ev.Detail)
		}
	}
	return trail
}

// driveGovernedOverload pushes a governed engine through the full
// degradation lifecycle: growing per-IP state trips degraded then
// emergency, emergency compaction reclaims the state, and the hysteresis
// walks back down to normal over the following calm cycles.
func driveGovernedOverload(e *Engine) {
	// Cycle 1: 150 entries (util 0.42, normal); the mixed v4 root splits.
	feedMixed(e, base, netip.MustParseAddr("10.0.0.0"), 150)
	e.AdvanceTo(base.Add(1 * time.Minute))
	// Cycle 2: +150 fresh entries -> 300 (util 0.83): degraded.
	feedMixed(e, base.Add(1*time.Minute), netip.MustParseAddr("10.1.0.0"), 150)
	e.AdvanceTo(base.Add(2 * time.Minute))
	// Cycle 3: cycle-1 entries expire (E=2m), +300 fresh -> 450 (util 1.25):
	// emergency, and the compaction pass force-joins the populated subtree.
	feedMixed(e, base.Add(2*time.Minute), netip.MustParseAddr("10.2.0.0"), 300)
	e.AdvanceTo(base.Add(3 * time.Minute))
	// Cycles 4-9: silence. Utilization is back under recover, so the hold
	// counter walks the state down: emergency -> degraded (cycle 6) ->
	// normal (cycle 9).
	e.AdvanceTo(base.Add(9 * time.Minute))
}

// TestGovernorLifecycleHysteresis drives the full governed overload
// lifecycle and asserts the journaled state trail, the deferred splits in
// degraded mode, and the forced compaction in emergency mode.
func TestGovernorLifecycleHysteresis(t *testing.T) {
	e, g, events := governedEngine(t)
	driveGovernedOverload(e)

	want := []string{"degraded", "emergency", "degraded", "normal"}
	got := governorTrail(*events)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("governor state trail = %v, want %v", got, want)
	}
	if g.State() != governor.StateNormal {
		t.Errorf("final state = %v, want normal", g.State())
	}
	if e.tel.splitsDeferred.Value() == 0 {
		t.Error("degraded mode deferred no splits")
	}
	if e.tel.rangesCompacted.Value() == 0 {
		t.Error("emergency mode compacted no ranges")
	}
	var compacted []Event
	for _, ev := range *events {
		if ev.Kind == EventCompacted {
			compacted = append(compacted, ev)
		}
	}
	if len(compacted) == 0 {
		t.Fatal("no EventCompacted emitted")
	}
	for _, ev := range compacted {
		if ev.Reason.Code != ReasonForcedCompaction || len(ev.Children) != 2 {
			t.Errorf("compaction event %+v: want forced-compaction reason and two children", ev)
		}
	}
	// Compaction reclaimed the per-IP population below the recover target.
	if tgt := int(governor.RecoverFraction * float64(g.Config().MaxIPStates)); e.IPStateCount() > tgt {
		t.Errorf("IPStateCount = %d after recovery, want <= %d", e.IPStateCount(), tgt)
	}
	// The governor transitions are all journaled with budget reasons.
	for _, ev := range *events {
		if ev.Kind != EventGovernor {
			continue
		}
		switch ev.Detail {
		case "degraded", "emergency":
			if ev.Reason.Code != ReasonOverBudget && ev.Reason.Code != ReasonBudgetRecovered {
				t.Errorf("governor event %+v: unexpected reason", ev)
			}
		}
	}
}

// TestGovernedRunReplays pins the provenance guarantee for governed runs:
// replaying the journal (including EventGovernor, EventCompacted, and
// EventQuarantined) into a fresh engine reconstructs the governed partition
// exactly.
func TestGovernedRunReplays(t *testing.T) {
	e, _, events := governedEngine(t)
	// Add one injected panic so the replay covers EventQuarantined too. It
	// targets the idle v6 root so the quarantine reset cannot drain the v4
	// state the overload needs.
	faulted := false
	e.cfg.CycleFault = func(p netip.Prefix) {
		if !faulted && !p.Addr().Is4() {
			faulted = true
			panic("replay-test fault")
		}
	}
	driveGovernedOverload(e)
	if !faulted {
		t.Fatal("fault never injected; traffic shape changed")
	}
	seen := map[EventKind]bool{}
	for _, ev := range *events {
		seen[ev.Kind] = true
	}
	for _, kind := range []EventKind{EventGovernor, EventCompacted, EventQuarantined} {
		if !seen[kind] {
			t.Fatalf("governed run emitted no %v; the test lost its teeth", kind)
		}
	}

	restored, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, ev := range *events {
		if ev.Seq <= restored.Seq() {
			continue
		}
		if err := restored.ApplyEvent(ev); err != nil {
			t.Fatalf("ApplyEvent seq %d (%v): %v", ev.Seq, ev.Kind, err)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("no events to replay")
	}
	if err := DiffPartitions(e.Snapshot(), restored.Snapshot()); err != nil {
		t.Errorf("replayed partition diverged: %v", err)
	}
	if restored.Seq() != e.Seq() {
		t.Errorf("replayed seq = %d, want %d", restored.Seq(), e.Seq())
	}
}

// TestCyclePanicContainment pins the containment contract: a panic during
// one range's stage-2 processing quarantines that range (journaled), the
// same cycle still processes every other range, and the quarantined range
// resumes processing after the quarantine lapses.
func TestCyclePanicContainment(t *testing.T) {
	e, events := collectEvents(t)
	target := ""
	e.cfg.CycleFault = func(p netip.Prefix) {
		if p.String() == target {
			target = ""
			panic("injected stage-2 fault")
		}
	}

	lo := netip.MustParseAddr("10.0.0.0")
	hi := netip.MustParseAddr("140.0.0.0")

	// Cycle 1: mixed root splits into the two /1s.
	feedN(e, base, lo, 100, inA)
	feedN(e, base, hi, 100, inB)
	e.AdvanceTo(base.Add(1 * time.Minute))

	// Cycle 2: both /1s would classify, but the low one panics mid-cycle.
	target = "0.0.0.0/1"
	feedN(e, base.Add(1*time.Minute), lo, 100, inA)
	feedN(e, base.Add(1*time.Minute), hi, 100, inB)
	e.AdvanceTo(base.Add(2 * time.Minute))

	var quarantine, classifiedOther *Event
	for i := range *events {
		ev := &(*events)[i]
		switch {
		case ev.Kind == EventQuarantined && ev.Prefix == "0.0.0.0/1":
			quarantine = ev
		case ev.Kind == EventClassified && ev.Prefix == "128.0.0.0/1":
			classifiedOther = ev
		}
	}
	if quarantine == nil {
		t.Fatal("no EventQuarantined for the faulted range")
	}
	if quarantine.Reason.Code != ReasonPanicRecovered {
		t.Errorf("quarantine reason = %v, want panic-recovered", quarantine.Reason.Code)
	}
	if !strings.Contains(quarantine.Detail, "injected stage-2 fault") {
		t.Errorf("quarantine detail %q does not carry the panic message", quarantine.Detail)
	}
	if classifiedOther == nil {
		t.Fatal("sibling range did not classify in the cycle that contained the panic")
	}
	if classifiedOther.Cycle != quarantine.Cycle {
		t.Errorf("sibling classified in cycle %d, fault in cycle %d: want same cycle",
			classifiedOther.Cycle, quarantine.Cycle)
	}
	if got := e.tel.panicsRecovered.Value(); got != 1 {
		t.Errorf("panicsRecovered = %d, want 1", got)
	}
	if got := e.tel.quarantines.Value(); got != 1 {
		t.Errorf("quarantines = %d, want 1", got)
	}

	// The faulted range was reset to empty unclassified state.
	if rs := rangeAt(e, lo); rs.classified || len(rs.ips) != 0 {
		t.Fatalf("faulted range not reset: classified=%v ips=%d", rs.classified, len(rs.ips))
	}

	// Cycles 3-5: keep feeding the faulted half. It sits out the quarantine
	// (2 cycles) and then classifies again from fresh traffic.
	for c := 2; c <= 4; c++ {
		feedN(e, base.Add(time.Duration(c)*time.Minute), lo, 100, inA)
		e.AdvanceTo(base.Add(time.Duration(c+1) * time.Minute))
	}
	var reclassified bool
	for _, ev := range *events {
		if ev.Kind == EventClassified && ev.Prefix == "0.0.0.0/1" && ev.Seq > quarantine.Seq {
			reclassified = true
			if ev.Cycle <= quarantine.Cycle+quarantineCycles {
				t.Errorf("range classified in cycle %d, inside its quarantine window (until %d)",
					ev.Cycle, quarantine.Cycle+quarantineCycles)
			}
		}
	}
	if !reclassified {
		t.Error("faulted range never re-classified after quarantine")
	}
}

// TestWatchdogGovernorReadiness pins the readiness wiring: an attached
// governor in emergency flips /readyz to 503 with a body naming the
// governor state, and recovery restores 200.
func TestWatchdogGovernorReadiness(t *testing.T) {
	now := base
	w, err := NewWatchdog(WatchdogConfig{Interval: time.Minute, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	g, err := governor.New(governor.Config{MaxRanges: 10})
	if err != nil {
		t.Fatal(err)
	}
	w.SetGovernor(g)
	if !w.Ready() {
		t.Fatal("ready should hold with a normal-state governor")
	}
	g.Evaluate(governor.Usage{Ranges: 10}) // util 1.0: emergency
	if g.State() != governor.StateEmergency {
		t.Fatalf("state = %v, want emergency", g.State())
	}
	if w.Ready() {
		t.Error("ready should fail while the governor is in emergency")
	}
	body, code := probe(t, w.ReadyzHandler())
	if code != 503 || !strings.Contains(body, "emergency") {
		t.Errorf("readyz = %d %q, want 503 naming the governor state", code, body)
	}
	// Liveness is unaffected: emergency is load shedding, not a stall.
	if body, code := probe(t, w.HealthzHandler()); code != 200 {
		t.Errorf("healthz = %d %q, want 200 (emergency must not flip liveness)", code, body)
	}
	// Recover: a hold of calm evaluations per step walks emergency ->
	// degraded -> normal.
	for i := 0; i < 2*governor.HoldCycles; i++ {
		g.Evaluate(governor.Usage{Ranges: 0})
	}
	if g.State() != governor.StateNormal {
		t.Fatalf("state = %v after calm evaluations, want normal", g.State())
	}
	if body, code := probe(t, w.ReadyzHandler()); code != 200 {
		t.Errorf("readyz = %d %q after recovery, want 200", code, body)
	}
}
