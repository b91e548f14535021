package core

import (
	"net/netip"
	"testing"
	"time"
)

// driveCycles feeds one /24 per ingress for n minutes, advancing a cycle per
// minute.
func driveCycles(e *Engine, n int) {
	for m := 0; m < n; m++ {
		ts := base.Add(time.Duration(m) * time.Minute)
		feedN(e, ts, netip.MustParseAddr("10.0.0.0"), 60, inA)
		feedN(e, ts, netip.MustParseAddr("10.1.0.0"), 20, inB)
		e.AdvanceTo(ts.Add(time.Minute))
	}
}

func TestOnCycleSampleContents(t *testing.T) {
	cfg := testConfig()
	var samples []CycleSample
	cfg.OnCycle = func(s CycleSample) []Alert {
		// The slices reference engine-owned buffers; copy what outlives the
		// callback, exactly as a real collector must.
		s.Ingress = append([]IngressCycleStat(nil), s.Ingress...)
		s.Depth4 = append([]int(nil), s.Depth4...)
		samples = append(samples, s)
		return nil
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveCycles(e, 30)

	if len(samples) != 30 {
		t.Fatalf("got %d samples over 30 cycles, want 30", len(samples))
	}
	last := samples[len(samples)-1]
	if last.Cycle != 30 {
		t.Fatalf("last sample cycle %d, want 30", last.Cycle)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycle != samples[i-1].Cycle+1 {
			t.Fatalf("non-monotonic cycles: %d then %d", samples[i-1].Cycle, samples[i].Cycle)
		}
	}
	if last.Ranges == 0 || last.Ranges != len(e.Snapshot()) {
		t.Fatalf("sample ranges %d, engine has %d", last.Ranges, len(e.Snapshot()))
	}

	// The depth histogram totals the active ranges.
	depthTotal := 0
	for _, n := range last.Depth4 {
		depthTotal += n
	}
	if depthTotal != last.Ranges-1 { // minus the v6 root (Depth6 holds it)
		t.Fatalf("depth4 histogram totals %d, want %d v4 ranges", depthTotal, last.Ranges-1)
	}

	// Per-ingress shares are sorted and sum to ~1 once traffic flows.
	if len(last.Ingress) != 2 {
		t.Fatalf("ingress stats %+v, want 2 entries", last.Ingress)
	}
	if last.Ingress[0].Ingress != inA || last.Ingress[1].Ingress != inB {
		t.Fatalf("ingress stats not sorted: %+v", last.Ingress)
	}
	sum := last.Ingress[0].Share + last.Ingress[1].Share
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
	if last.Ingress[0].Share <= last.Ingress[1].Share {
		t.Fatalf("inA carries 3x the traffic but shares are %+v", last.Ingress)
	}

	// Lifecycle deltas are per-cycle (not cumulative): summing them over all
	// samples must reproduce the engine totals.
	var classifications, splits uint64
	for _, s := range samples {
		classifications += s.Classifications
		splits += s.Splits
	}
	st := e.Stats()
	if classifications != st.Classifications || splits != st.Splits {
		t.Fatalf("summed deltas %d classifications / %d splits, engine totals %d / %d",
			classifications, splits, st.Classifications, st.Splits)
	}
}

// TestOnCycleEveryGate pins the OnCycle cadence: exactly one sample per
// stage-2 cycle, also for the cycles one AdvanceTo runs across a gap in the
// traffic, so the per-cycle deltas sum to the engine totals.
func TestOnCycleEveryGate(t *testing.T) {
	cfg := testConfig()
	var cycles []uint64
	var sum Stats
	cfg.OnCycle = func(s CycleSample) []Alert {
		cycles = append(cycles, s.Cycle)
		sum.Splits += s.Splits
		sum.Joins += s.Joins
		sum.Drops += s.Drops
		sum.Classifications += s.Classifications
		sum.Invalidations += s.Invalidations
		sum.Expirations += s.Expirations
		return nil
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveCycles(e, 40)
	// Twenty silent minutes run in one call; the traffic that resumes
	// enters through the other ingress and invalidates a classification.
	resume := base.Add(60 * time.Minute)
	e.AdvanceTo(resume)
	feedN(e, resume, netip.MustParseAddr("10.0.0.0"), 60, inB)
	e.AdvanceTo(resume.Add(time.Minute))
	st := e.Stats()
	if uint64(len(cycles)) != st.Cycles {
		t.Fatalf("got %d samples over %d cycles", len(cycles), st.Cycles)
	}
	for i, c := range cycles {
		if c != uint64(i+1) {
			t.Fatalf("sample %d is cycle %d, want every cycle in order (%v)", i, c, cycles)
		}
	}
	if st.Cycles < 60 || st.Classifications == 0 || st.Splits == 0 || st.Invalidations == 0 {
		t.Fatalf("stream too tame to pin the deltas: %+v", st)
	}
	want := Stats{Splits: st.Splits, Joins: st.Joins, Drops: st.Drops, Classifications: st.Classifications,
		Invalidations: st.Invalidations, Expirations: st.Expirations}
	if sum != want {
		t.Fatalf("summed sample deltas %+v, engine totals %+v", sum, want)
	}
}

// TestOnCycleAlertsJournaled checks the alert-emission contract: alerts
// returned from OnCycle come back through OnEvent as seq-stamped alert
// events, and replaying them through ApplyEvent is a structural no-op.
func TestOnCycleAlertsJournaled(t *testing.T) {
	cfg := testConfig()
	var events []Event
	cfg.OnEvent = func(ev Event) { events = append(events, ev) }
	fired := false
	cfg.OnCycle = func(s CycleSample) []Alert {
		if s.Cycle != 3 {
			return nil
		}
		fired = true
		return []Alert{
			{Kind: AlertDrift, Raise: true, Ingress: inA,
				Reason: Reason{Code: ReasonShareDrift, Observed: 0.5, Threshold: 0.25}},
			{Kind: AlertFlap, Raise: false, Prefix: "10.0.0.0/24",
				Reason: Reason{Code: ReasonFlapRate, Observed: 1, Threshold: 1}},
		}
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveCycles(e, 5)
	if !fired {
		t.Fatal("OnCycle never saw cycle 3")
	}

	var raised, cleared *Event
	for i := range events {
		switch events[i].Kind {
		case EventAlertRaised:
			raised = &events[i]
		case EventAlertCleared:
			cleared = &events[i]
		}
	}
	if raised == nil || cleared == nil {
		t.Fatalf("alert events missing from the stream (%d events)", len(events))
	}
	if raised.Seq == 0 || raised.Cycle != 3 || raised.Ingress != inA || raised.Detail != AlertDrift.String() {
		t.Fatalf("raised event %+v", raised)
	}
	if raised.Reason.Code != ReasonShareDrift {
		t.Fatalf("raised reason %v", raised.Reason.Code)
	}
	if cleared.Prefix != "10.0.0.0/24" || cleared.Detail != AlertFlap.String() {
		t.Fatalf("cleared event %+v", cleared)
	}

	// Alert events replay as structural no-ops: applying the whole stream to
	// a fresh engine must not error and must land on the same seq.
	e2, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := e2.ApplyEvent(ev); err != nil {
			t.Fatalf("ApplyEvent(%v): %v", ev.Kind, err)
		}
	}
	if e2.Seq() != e.Seq() {
		t.Fatalf("replayed seq %d, engine seq %d", e2.Seq(), e.Seq())
	}
}
