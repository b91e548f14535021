package timeline

import (
	"fmt"
	"testing"

	"ipd/internal/core"
	"ipd/internal/flow"
)

var (
	tIn1 = flow.Ingress{Router: 1, Iface: 1}
	tIn2 = flow.Ingress{Router: 2, Iface: 1}
)

// sampleWithShares builds a minimal cycle sample carrying per-ingress shares.
func sampleWithShares(cycle uint64, shares map[flow.Ingress]float64) core.CycleSample {
	s := core.CycleSample{Cycle: cycle}
	for in, sh := range shares {
		s.Ingress = append(s.Ingress, core.IngressCycleStat{Ingress: in, Share: sh})
	}
	return s
}

func classify(a *analyzer, cycle uint64, prefix string, in flow.Ingress) {
	a.observeEvent(core.Event{Kind: core.EventClassified, Cycle: cycle, Prefix: prefix, Ingress: in})
}

func invalidate(a *analyzer, cycle uint64, prefix string) {
	a.observeEvent(core.Event{Kind: core.EventInvalidated, Cycle: cycle, Prefix: prefix})
}

// collectAlerts runs evaluate for one cycle and splits the result by kind.
func collectAlerts(a *analyzer, s core.CycleSample) (raised, cleared []core.Alert) {
	for _, al := range a.evaluate(s) {
		if al.Raise {
			raised = append(raised, al)
		} else {
			cleared = append(cleared, al)
		}
	}
	return raised, cleared
}

// TestHysteresisStep pins the one raise/clear machine every alert runs
// through: each tick feeds (raise, calm) and checks the transition reported
// and the state left behind.
func TestHysteresisStep(t *testing.T) {
	type tick struct {
		raise, calm     bool
		raised, cleared bool
		after           hysteresis
	}
	alerted := func(calm int) hysteresis { return hysteresis{alerted: true, calm: calm} }
	cases := []struct {
		name  string
		start hysteresis
		hold  int
		ticks []tick
	}{
		{"a raise resets calm", hysteresis{calm: 2}, 3, []tick{
			{raise: true, raised: true, after: alerted(0)},
		}},
		{"nothing happens while clear and not raising", hysteresis{}, 3, []tick{
			{calm: true},
			{},
		}},
		{"no re-raise while alerted", alerted(1), 3, []tick{
			{raise: true, after: alerted(0)},
		}},
		{"a non-calm tick resets the hold", alerted(0), 3, []tick{
			{calm: true, after: alerted(1)},
			{calm: true, after: alerted(2)},
			{after: alerted(0)},
			{calm: true, after: alerted(1)},
		}},
		{"the clear happens exactly at the hold", alerted(0), 3, []tick{
			{calm: true, after: alerted(1)},
			{calm: true, after: alerted(2)},
			{calm: true, cleared: true},
			{calm: true},
		}},
		{"with hold 1 the first calm tick clears", alerted(0), 1, []tick{
			{calm: true, cleared: true},
		}},
		{"a raising and calm tick raises without counting as calm", hysteresis{}, 1, []tick{
			{raise: true, calm: true, raised: true, after: alerted(0)},
			{calm: true, cleared: true},
		}},
	}
	for _, tc := range cases {
		h := tc.start
		for i, tk := range tc.ticks {
			raised, cleared := h.step(tk.raise, tk.calm, tc.hold)
			if raised != tk.raised || cleared != tk.cleared || h != tk.after {
				t.Errorf("%s: tick %d (raise=%v calm=%v): raised=%v cleared=%v left %+v, want %v/%v and %+v",
					tc.name, i, tk.raise, tk.calm, raised, cleared, h, tk.raised, tk.cleared, tk.after)
			}
		}
	}
}

func TestFlapRaiseAndClear(t *testing.T) {
	a := newAnalyzer()
	const p = "10.0.0.0/24"

	classify(a, 1, p, tIn1) // first classification: not a transition
	var raises, clears int
	var raiseCycle, clearCycle uint64
	cycle := uint64(1)
	flip := tIn2
	for ; cycle <= 6; cycle++ {
		classify(a, cycle, p, flip) // ingress change each cycle: a transition
		if flip == tIn1 {
			flip = tIn2
		} else {
			flip = tIn1
		}
		r, c := collectAlerts(a, core.CycleSample{Cycle: cycle})
		raises += len(r)
		clears += len(c)
		if len(r) == 1 && raiseCycle == 0 {
			raiseCycle = cycle
			if r[0].Kind != core.AlertFlap || r[0].Prefix != p {
				t.Fatalf("unexpected raise %+v", r[0])
			}
			if r[0].Reason.Code != core.ReasonFlapRate {
				t.Fatalf("raise reason %v", r[0].Reason.Code)
			}
		}
	}
	if raises != 1 || raiseCycle != flapRaise {
		t.Fatalf("got %d raises (first at cycle %d), want 1 at cycle %d", raises, raiseCycle, flapRaise)
	}

	// Quiet cycles: the window drains, then flapHold calm evaluations clear.
	for ; cycle <= 80 && clearCycle == 0; cycle++ {
		r, c := collectAlerts(a, core.CycleSample{Cycle: cycle})
		raises += len(r)
		clears += len(c)
		if len(c) == 1 {
			clearCycle = cycle
		}
	}
	if raises != 1 || clears != 1 {
		t.Fatalf("got %d raises / %d clears, want exactly 1 / 1", raises, clears)
	}
	// Transitions at cycles 1..6 leave the 30-cycle window by cycle 36; one
	// remains at <= flapClear from cycle 35 on, so the 5-cycle hold
	// completes at cycle 39.
	if clearCycle != 39 {
		t.Fatalf("cleared at cycle %d, want 39 (the fifth calm evaluation)", clearCycle)
	}
}

// TestFlapHysteresisBoundaryNoise drives the transition count back and forth
// across the clear threshold (but below the raise threshold) after a flap
// episode: the alert must clear exactly once and never re-raise — boundary
// noise must not make the alert itself flap.
func TestFlapHysteresisBoundaryNoise(t *testing.T) {
	a := newAnalyzer()
	const p = "10.1.0.0/24"

	classify(a, 1, p, tIn1)
	// Burn a real flap episode: 4 transitions in 4 cycles.
	var raises, clears int
	cycle := uint64(1)
	for ; cycle <= 4; cycle++ {
		invalidate(a, cycle, p)
		classify(a, cycle, p, tIn1)
		r, c := collectAlerts(a, core.CycleSample{Cycle: cycle})
		raises += len(r)
		clears += len(c)
	}
	if raises != 1 {
		t.Fatalf("setup: got %d raises, want 1", raises)
	}

	// Boundary noise: one transition every 16 cycles keeps the 30-cycle
	// window count oscillating between 2 (> flapClear: not calm, but below
	// flapRaise) for 14 cycles and 1 (== flapClear: calm) for 2. The calm
	// hold of 5 keeps being interrupted.
	for ; cycle <= 100; cycle++ {
		if cycle%16 == 0 {
			invalidate(a, cycle, p)
			classify(a, cycle, p, tIn1)
		}
		r, c := collectAlerts(a, core.CycleSample{Cycle: cycle})
		raises += len(r)
		clears += len(c)
	}
	if raises != 1 || clears != 0 {
		t.Fatalf("boundary noise: %d raises / %d clears, want the alert held (1 / 0)", raises, clears)
	}
	// Then true calm: the alert clears once and stays cleared even when a
	// single isolated transition (count 1 < flapRaise) happens later.
	for ; cycle <= 200; cycle++ {
		if cycle == 150 {
			invalidate(a, cycle, p)
			classify(a, cycle, p, tIn1)
		}
		r, c := collectAlerts(a, core.CycleSample{Cycle: cycle})
		raises += len(r)
		clears += len(c)
	}
	if raises != 1 || clears != 1 {
		t.Fatalf("boundary noise flapped the alert: %d raises / %d clears, want 1 / 1", raises, clears)
	}
}

func TestDriftCollapseRaisesAndClearsOnce(t *testing.T) {
	a := newAnalyzer()
	shares := map[flow.Ingress]float64{tIn1: 0.8, tIn2: 0.2}
	var raises, clears int
	cycle := uint64(1)
	for ; cycle <= 20; cycle++ {
		r, c := collectAlerts(a, sampleWithShares(cycle, shares))
		raises += len(r)
		clears += len(c)
	}
	if raises != 0 || clears != 0 {
		t.Fatalf("steady shares alerted: %d raises / %d clears", raises, clears)
	}

	// tIn1 vanishes; tIn2 mechanically inflates to the full share. Only the
	// collapse direction may alert.
	shares = map[flow.Ingress]float64{tIn2: 1.0}
	var raisedOn []flow.Ingress
	for ; cycle <= 200; cycle++ {
		r, c := collectAlerts(a, sampleWithShares(cycle, shares))
		for _, al := range r {
			raisedOn = append(raisedOn, al.Ingress)
		}
		raises += len(r)
		clears += len(c)
	}
	if raises != 1 || len(raisedOn) != 1 || raisedOn[0] != tIn1 {
		t.Fatalf("want exactly 1 raise on %v, got %d raises on %v", tIn1, raises, raisedOn)
	}
	if clears != 1 {
		t.Fatalf("want the drift alert cleared once as the EWMA baseline catches up, got %d clears", clears)
	}
}

func TestDriftAppearingIngressNeverAlerts(t *testing.T) {
	a := newAnalyzer()
	var alerts int
	for cycle := uint64(1); cycle <= 50; cycle++ {
		shares := map[flow.Ingress]float64{tIn1: 1.0}
		if cycle >= 10 {
			// tIn2 appears with most of the traffic; its EWMA initializes to
			// the first observed share, so appearing is not drift — and tIn1
			// keeps 0.4, a 0.6 deficit... but gradual EWMA tracking below the
			// delta would not fire; use a deficit below driftDelta.
			shares = map[flow.Ingress]float64{tIn1: 0.8, tIn2: 0.2}
		}
		alerts += len(a.evaluate(sampleWithShares(cycle, shares)))
	}
	if alerts != 0 {
		t.Fatalf("appearing ingress alerted %d times", alerts)
	}
}

func TestDriftIgnoresTinyShares(t *testing.T) {
	a := newAnalyzer()
	var alerts int
	for cycle := uint64(1); cycle <= 50; cycle++ {
		shares := map[flow.Ingress]float64{tIn1: 0.99, tIn2: 0.01}
		if cycle >= 25 {
			shares = map[flow.Ingress]float64{tIn1: 1.0} // the 1% ingress vanishes
		}
		alerts += len(a.evaluate(sampleWithShares(cycle, shares)))
	}
	if alerts != 0 {
		t.Fatalf("sub-driftMinShare churn alerted %d times", alerts)
	}
}

// TestSimultaneousAlertsSorted raises many flap and drift alerts in one
// cycle: they must come out flap first by prefix, then drift by ingress,
// whatever order the tracking maps iterate in, so the journal is stable.
func TestSimultaneousAlertsSorted(t *testing.T) {
	ins := []flow.Ingress{{Router: 3, Iface: 1}, {Router: 1, Iface: 2}, {Router: 1, Iface: 1}, {Router: 2, Iface: 1}}
	steady := map[flow.Ingress]float64{}
	for _, in := range ins {
		steady[in] = 0.25
	}
	const prefixes = 8
	for run := 0; run < 20; run++ {
		a := newAnalyzer()
		var got []core.Alert
		for cycle := uint64(1); cycle <= flapRaise; cycle++ {
			for i := prefixes - 1; i >= 0; i-- {
				invalidate(a, cycle, prefixFor(i))
			}
			shares := steady
			if cycle == flapRaise {
				shares = nil // every ingress vanishes at once
			}
			got = a.evaluate(sampleWithShares(cycle, shares))
		}
		if len(got) != prefixes+len(ins) {
			t.Fatalf("run %d: %d alerts, want %d flap + %d drift raises", run, len(got), prefixes, len(ins))
		}
		for i, al := range got {
			wantKind := core.AlertFlap
			if i >= prefixes {
				wantKind = core.AlertDrift
			}
			if al.Kind != wantKind || !al.Raise {
				t.Fatalf("run %d: alert %d is %v raise=%v, want a %v raise", run, i, al.Kind, al.Raise, wantKind)
			}
			if i > 0 && al.Kind == got[i-1].Kind {
				prev := got[i-1]
				if al.Prefix < prev.Prefix || (al.Prefix == prev.Prefix && !lessIngress(prev.Ingress, al.Ingress)) {
					t.Fatalf("run %d: alerts %d and %d out of subject order: %+v then %+v", run, i-1, i, prev, al)
				}
			}
		}
	}
}

func TestConvergenceHistogram(t *testing.T) {
	a := newAnalyzer()
	var observed []float64
	a.onConv = func(d float64) { observed = append(observed, d) }

	// Three ranges: classified after 1, 3, and 20 cycles; a fourth is dropped
	// before classifying (no observation).
	a.observeEvent(core.Event{Kind: core.EventCreated, Cycle: 5, Prefix: "10.0.0.0/24"})
	a.observeEvent(core.Event{Kind: core.EventCreated, Cycle: 5, Prefix: "10.0.1.0/24"})
	a.observeEvent(core.Event{Kind: core.EventCreated, Cycle: 5, Prefix: "10.0.2.0/24"})
	a.observeEvent(core.Event{Kind: core.EventCreated, Cycle: 5, Prefix: "10.0.3.0/24"})
	classify(a, 6, "10.0.0.0/24", tIn1)
	classify(a, 8, "10.0.1.0/24", tIn1)
	classify(a, 25, "10.0.2.0/24", tIn2)
	a.observeEvent(core.Event{Kind: core.EventDropped, Cycle: 26, Prefix: "10.0.2.0/26",
		Children: []string{"10.0.3.0/24"}})
	// Reclassification of an already-converged range observes nothing.
	classify(a, 30, "10.0.0.0/24", tIn2)

	if a.convTotal != 3 {
		t.Fatalf("convTotal %d, want 3", a.convTotal)
	}
	// Deltas 1, 3, 20 land in buckets <=1, <=3, <=21 of 1,2,3,5,8,13,21,34,55,+Inf.
	want := []uint64{1, 0, 1, 0, 0, 0, 1, 0, 0, 0}
	for i, n := range want {
		if a.convCounts[i] != n {
			t.Fatalf("bucket %d count %d, want %d (counts %v)", i, a.convCounts[i], n, a.convCounts)
		}
	}
	if len(observed) != 3 || observed[0] != 1 || observed[1] != 3 || observed[2] != 20 {
		t.Fatalf("onConv saw %v, want [1 3 20]", observed)
	}
	if got := a.convSum; got != 24 {
		t.Fatalf("convSum %v, want 24", got)
	}
}

// TestAnalyzerEvictionDeterministic fills the tracking maps past maxTracked
// twice with identical input and checks the surviving sets match — eviction
// must be a pure function of the event history.
func TestAnalyzerEvictionDeterministic(t *testing.T) {
	runOnce := func() ([]string, []string) {
		a := newAnalyzer()
		for i := 0; i < maxTracked+64; i++ {
			p := prefixFor(i)
			a.observeEvent(core.Event{Kind: core.EventCreated, Cycle: uint64(i + 1), Prefix: p})
			classify(a, uint64(i+1), p, tIn1)
			classify(a, uint64(i+1), p, tIn2) // one transition each: flap entries
		}
		var births, flaps []string
		for p := range a.births {
			births = append(births, p)
		}
		for p := range a.flaps {
			flaps = append(flaps, p)
		}
		return births, flaps
	}
	b1, f1 := runOnce()
	b2, f2 := runOnce()
	if len(b1) > maxTracked || len(f1) > maxTracked {
		t.Fatalf("maps exceed maxTracked: %d births, %d flaps", len(b1), len(f1))
	}
	if !sameSet(b1, b2) || !sameSet(f1, f2) {
		t.Fatalf("eviction diverged between identical runs: births %d vs %d, flaps %d vs %d",
			len(b1), len(b2), len(f1), len(f2))
	}
}

func prefixFor(i int) string {
	return fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[string]bool, len(a))
	for _, s := range a {
		m[s] = true
	}
	for _, s := range b {
		if !m[s] {
			return false
		}
	}
	return true
}
