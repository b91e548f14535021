package core

import (
	"bytes"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/netaddr"
	"ipd/internal/stattime"
)

// sketchConfig is testConfig with the fixed-memory sketch tier enabled.
func sketchTestConfig() Config {
	cfg := testConfig()
	cfg.Sketch = true
	return cfg
}

// TestSketchRecoversFirstSeenAtCap pins the cap-skip regression: a source
// refused a per-IP entry at Config.MaxIPStates keeps contributing to the
// sketch window, and when headroom opens its minted entry recovers the
// coarse first-seen from the sketch instead of restarting its aging from
// the mint time.
func TestSketchRecoversFirstSeenAtCap(t *testing.T) {
	cfg := sketchTestConfig()
	cfg.MaxIPStates = 10
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the budget with ten sources in distinct /28 blocks.
	filler := netip.MustParseAddr("10.0.0.0").As4()
	for i := 0; i < 10; i++ {
		filler[3] = byte(i * 16)
		e.Observe(rec(base, netip.AddrFrom4(filler).String(), inA))
	}
	if got := e.IPStateCount(); got != 10 {
		t.Fatalf("IPStateCount = %d, want 10 (the cap)", got)
	}

	// X arrives while the budget is exhausted: refused each minute, but the
	// sketch remembers it.
	const x = "10.0.9.0"
	for m := 0; m < 3; m++ {
		e.Observe(rec(base.Add(time.Duration(m)*time.Minute), x, inA))
		e.AdvanceTo(base.Add(time.Duration(m+1) * time.Minute))
	}
	if got := e.tel.ipStatesSkipped.Value(); got < 3 {
		t.Fatalf("ipStatesSkipped = %d, want >= 3 (X refused every minute)", got)
	}
	if got := e.IPStateCount(); got != 0 {
		t.Fatalf("IPStateCount = %d after the fillers aged out, want 0", got)
	}

	// Headroom is open: the mint recovers X's first-seen from the sketch.
	mintTs := base.Add(3*time.Minute + 10*time.Second)
	e.Observe(rec(mintTs, x, inA))
	if got := e.tel.sketchFirstSeen.Value(); got != 1 {
		t.Fatalf("sketchFirstSeen = %d, want 1", got)
	}
	masked, _ := netaddr.Mask(netip.MustParseAddr(x), e.cfg.cidrMax(false))
	st := rangeAt(e, masked.Addr()).ips[netaddr.KeyOf(masked)]
	if st == nil {
		t.Fatal("X was not minted despite open headroom")
	}
	// The recovered stamp is the oldest retained sketch generation that saw
	// X — coarse (a cycle boundary), but strictly before the mint and no
	// later than X's last refused observation.
	if !st.firstSeen.Before(mintTs) {
		t.Errorf("firstSeen = %v, want before the mint at %v", st.firstSeen, mintTs)
	}
	if st.firstSeen.After(base.Add(2 * time.Minute)) {
		t.Errorf("firstSeen = %v, want <= the last refused observation at %v",
			st.firstSeen, base.Add(2*time.Minute))
	}
}

// sketchGovernedEngine builds a sketch-tier engine whose governor budgets
// 100 per-IP entries with default thresholds, collecting all events.
func sketchGovernedEngine(t *testing.T) (*Engine, *governor.Governor, *[]Event) {
	t.Helper()
	g, err := governor.New(governor.Config{MaxIPStates: 100, SketchTier: true})
	if err != nil {
		t.Fatal(err)
	}
	events := &[]Event{}
	cfg := sketchTestConfig()
	cfg.Governor = g
	cfg.OnEvent = func(ev Event) { *events = append(*events, ev) }
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, g, events
}

// TestSketchFloodLifecycle drives the full sketch-tier lifecycle under a
// mixed-ingress flood: the emergency sweep degrades the hot range instead
// of force-compacting, budget-aware hydration keeps the range sketched
// while its vote mass exceeds the per-cycle headroom, and the governor's
// downgrade back to normal re-enables exact minting. The journaled event
// stream replays to the same partition.
func TestSketchFloodLifecycle(t *testing.T) {
	e, g, events := sketchGovernedEngine(t)

	// Minute 0: 150 mixed-ingress sources (util 1.5) — straight to
	// emergency; the sweep sketches the hot child, not the compactor.
	feedMixed(e, base, netip.MustParseAddr("10.0.0.0"), 150)
	e.AdvanceTo(base.Add(time.Minute))
	if got := e.SketchStatus().Degrades; got == 0 {
		t.Fatal("emergency sweep degraded nothing")
	}
	if got := e.IPStateCount(); got != 0 {
		t.Fatalf("IPStateCount = %d after the sweep, want 0", got)
	}

	// Minutes 1-11: the flood continues into the sketched range. The
	// governor walks back to normal (per-IP usage is zero), but the range's
	// retained vote mass (~450) exceeds the hydration headroom
	// (recover_fraction * budget = 60), so it must stay sketched.
	for m := 1; m <= 11; m++ {
		feedMixed(e, base.Add(time.Duration(m)*time.Minute), netip.MustParseAddr("10.0.0.0"), 150)
		e.AdvanceTo(base.Add(time.Duration(m+1) * time.Minute))
	}
	if g.State() != governor.StateNormal {
		t.Fatalf("governor = %v after recovery hold, want normal", g.State())
	}
	// Empty ranges that were pre-sketched under pressure may already have
	// hydrated (their mass is zero); the flooded range itself must not —
	// its retained vote mass exceeds the per-cycle headroom.
	hot := netip.MustParseAddr("10.0.0.7")
	hotSketched := false
	for _, ri := range e.Snapshot() {
		if ri.Prefix.Contains(hot) && !ri.Classified {
			hotSketched = ri.Sketched
		}
	}
	if !hotSketched {
		t.Fatal("flooded range hydrated while its vote mass exceeds the hydration budget")
	}
	floodHydrates := e.SketchStatus().Hydrates

	// Flood stops: the ring generations age out, the mass fits the budget,
	// and the range hydrates back to exact mode.
	e.AdvanceTo(base.Add(20 * time.Minute))
	if got := e.SketchStatus().Hydrates; got <= floodHydrates {
		t.Fatalf("Hydrates = %d after the flood stopped, want > %d (the flooded range hydrates)",
			got, floodHydrates)
	}
	for _, ri := range e.Snapshot() {
		if ri.Sketched && !ri.Classified {
			t.Fatalf("range %v still sketched after hydration", ri.Prefix)
		}
	}

	// Exact minting is re-enabled: fresh sources mint per-IP entries again.
	feedMixed(e, base.Add(20*time.Minute), netip.MustParseAddr("10.64.0.0"), 30)
	if got := e.IPStateCount(); got != 30 {
		t.Fatalf("IPStateCount = %d after recovery, want 30 (minting re-enabled)", got)
	}

	// The sweep made destructive compaction unnecessary.
	for _, ev := range *events {
		if ev.Kind == EventCompacted {
			t.Fatalf("EventCompacted emitted (%+v); the sketch sweep should have absorbed the flood", ev)
		}
	}
	var toSketched, toExact int
	for _, ev := range *events {
		if ev.Kind == EventStateMode {
			switch ev.Detail {
			case StateModeSketched:
				toSketched++
			case StateModeExact:
				toExact++
			}
		}
	}
	if toSketched == 0 || toExact == 0 {
		t.Fatalf("mode transitions journaled: %d sketched, %d exact; want both > 0", toSketched, toExact)
	}

	// The journal replays to the same partition, sketched flags included.
	restored, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range *events {
		if ev.Seq <= restored.Seq() {
			continue
		}
		if err := restored.ApplyEvent(ev); err != nil {
			t.Fatalf("ApplyEvent seq %d (%v): %v", ev.Seq, ev.Kind, err)
		}
	}
	if err := DiffPartitions(e.Snapshot(), restored.Snapshot()); err != nil {
		t.Fatalf("replayed partition diverged: %v", err)
	}
}

// TestSketchedCheckpointRoundTrip pins checkpoint v2 on a run with live
// sketched state: the restored engine is byte-identical, keeps the sketched
// ranges sketched, and keeps refusing per-IP mints for their traffic.
func TestSketchedCheckpointRoundTrip(t *testing.T) {
	e, _, _ := sketchGovernedEngine(t)
	feedMixed(e, base, netip.MustParseAddr("10.0.0.0"), 150)
	e.AdvanceTo(base.Add(time.Minute))
	// A second minute into the sketched range so the vote ring and the
	// shared sketch window both carry mass through the checkpoint.
	feedMixed(e, base.Add(time.Minute), netip.MustParseAddr("10.0.0.0"), 150)
	e.AdvanceTo(base.Add(2 * time.Minute))
	if e.SketchStatus().SketchedRanges == 0 {
		t.Fatal("no sketched ranges at checkpoint time; test lost its teeth")
	}
	data := e.MarshalState()

	g, err := governor.New(governor.Config{MaxIPStates: 100, SketchTier: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sketchTestConfig()
	cfg.Governor = g
	fresh, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.UnmarshalState(data); err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	if !bytes.Equal(fresh.MarshalState(), data) {
		t.Error("re-marshal differs from original")
	}
	a, b := e.Snapshot(), fresh.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Prefix != b[i].Prefix || a[i].Sketched != b[i].Sketched {
			t.Errorf("range %d differs: %v/%v vs %v/%v",
				i, a[i].Prefix, a[i].Sketched, b[i].Prefix, b[i].Sketched)
		}
	}
	if got, want := fresh.SketchStatus().SketchedRanges, e.SketchStatus().SketchedRanges; got != want {
		t.Errorf("restored SketchedRanges = %d, want %d", got, want)
	}
	// The restored sketched range still counts without minting.
	before := fresh.IPStateCount()
	feedMixed(fresh, base.Add(2*time.Minute), netip.MustParseAddr("10.0.0.0"), 50)
	if got := fresh.IPStateCount(); got != before {
		t.Errorf("IPStateCount = %d after feeding a restored sketched range, want %d (no mints)", got, before)
	}
}

// TestSketchStatusConcurrentWithIngest exercises the server's sketch
// introspection concurrently with flood ingest — the pair the race detector
// watches: Ingest mutating the engine while scrape goroutines read
// SketchStatus and the mapped snapshot.
func TestSketchStatusConcurrentWithIngest(t *testing.T) {
	g, err := governor.New(governor.Config{MaxIPStates: 100, SketchTier: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sketchTestConfig()
	cfg.Governor = g
	cfg.OnEvent = func(Event) {}
	s, err := NewServer(cfg, stattime.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	var recs []flow.Record
	for m := 0; m < 6; m++ {
		ts := base.Add(time.Duration(m) * time.Minute)
		a4 := netip.MustParseAddr("10.0.0.0").As4()
		for i := 0; i < 150; i++ {
			a4[3] = byte(i % 16 * 16)
			a4[2] = byte(i / 16)
			in := inA
			if i%2 == 1 {
				in = inB
			}
			recs = append(recs, flow.Record{Ts: ts, Src: netip.AddrFrom4(a4), In: in, Bytes: 1000, Packets: 1})
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = s.SketchStatus()
				_ = s.Mapped()
			}
		}
	}()
	feed(s, recs)
	s.Finish()
	close(done)
	wg.Wait()

	if got := s.SketchStatus().Degrades; got == 0 {
		t.Error("flood never engaged the sketch tier under concurrent scrapes")
	}
	if s.eng.IPStateCount() > 100 {
		t.Errorf("IPStateCount = %d, exceeds the governed budget 100", s.eng.IPStateCount())
	}
}
