package exphealth

import (
	"math"
	"sort"
	"testing"
	"time"

	"ipd/internal/flow"
)

var t0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

// fixedNow pins the tracker's collector clock for deterministic skew math.
func fixedNow(at time.Time) func() time.Time {
	return func() time.Time { return at }
}

func feed(t *testing.T, tr *Tracker, key Key) *feedState {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	fs, ok := tr.feeds[key]
	if !ok {
		t.Fatalf("feed %v not tracked", key)
	}
	return fs
}

func TestSequenceGapBooksLoss(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	r := flow.RouterID(1)
	tr.ObserveNetFlow(r, 0, 30, t0, 0)
	tr.ObserveNetFlow(r, 30, 30, t0, 0) // in order
	tr.ObserveNetFlow(r, 90, 30, t0, 0) // 30 records missing
	fs := feed(t, tr, Key{Proto: ProtoNetFlow, Router: r})
	if fs.lost != 30 {
		t.Fatalf("lost = %d, want 30", fs.lost)
	}
	if fs.restarts != 0 || fs.reordered != 0 {
		t.Fatalf("restarts=%d reordered=%d, want 0/0", fs.restarts, fs.reordered)
	}
}

func TestSequenceWraparound(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	r := flow.RouterID(2)
	start := uint32(0xFFFFFFF0) // 16 before the wrap
	tr.ObserveNetFlow(r, start, 30, t0, 0)
	// Next expected is start+30 = 14 after wrapping. In-order datagram:
	tr.ObserveNetFlow(r, start+30, 30, t0, 0)
	fs := feed(t, tr, Key{Proto: ProtoNetFlow, Router: r})
	if fs.lost != 0 || fs.restarts != 0 {
		t.Fatalf("clean wrap booked lost=%d restarts=%d", fs.lost, fs.restarts)
	}
	// A 6-record gap straddling nothing special — but the counter has
	// wrapped, so plain subtraction would see a ~2^32 difference.
	tr.ObserveNetFlow(r, start+30+30+6, 30, t0, 0)
	if fs.lost != 6 {
		t.Fatalf("lost across wrap = %d, want 6", fs.lost)
	}
	if fs.restarts != 0 {
		t.Fatalf("wraparound misread as restart")
	}
}

func TestReorderNetsBookedLoss(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	r := flow.RouterID(3)
	tr.ObserveNetFlow(r, 0, 30, t0, 0)
	tr.ObserveNetFlow(r, 60, 30, t0, 0) // datagram at seq 30 missing: +30 lost
	fs := feed(t, tr, Key{Proto: ProtoNetFlow, Router: r})
	if fs.lost != 30 {
		t.Fatalf("lost = %d, want 30 before late arrival", fs.lost)
	}
	tr.ObserveNetFlow(r, 30, 30, t0, 0) // it was just late
	if fs.lost != 0 {
		t.Fatalf("lost = %d after late arrival, want 0", fs.lost)
	}
	if fs.reordered != 1 {
		t.Fatalf("reordered = %d, want 1", fs.reordered)
	}
	// Expected sequence must not have moved backwards: the next in-order
	// datagram (seq 90) books nothing.
	tr.ObserveNetFlow(r, 90, 30, t0, 0)
	if fs.lost != 0 || fs.restarts != 0 {
		t.Fatalf("post-reorder resume booked lost=%d restarts=%d", fs.lost, fs.restarts)
	}
}

func TestRestartDetection(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	r := flow.RouterID(4)
	tr.ObserveNetFlow(r, 5_000_000, 30, t0, 0)
	tr.ObserveNetFlow(r, 5_000_030, 30, t0, 0)
	// Exporter reboots and its counter re-seeds at zero: a restart, not a
	// ~4-billion-record gap and not ~5M of loss.
	tr.ObserveNetFlow(r, 0, 30, t0, 0)
	fs := feed(t, tr, Key{Proto: ProtoNetFlow, Router: r})
	if fs.restarts != 1 {
		t.Fatalf("restarts = %d, want 1", fs.restarts)
	}
	if fs.lost != 0 {
		t.Fatalf("restart booked %d lost records", fs.lost)
	}
	// And accounting re-anchors: the next in-order datagram is clean.
	tr.ObserveNetFlow(r, 30, 30, t0, 0)
	if fs.lost != 0 || fs.restarts != 1 {
		t.Fatalf("post-restart lost=%d restarts=%d", fs.lost, fs.restarts)
	}
	// An implausible forward jump is also a restart, not loss.
	tr.ObserveNetFlow(r, 1<<30, 30, t0, 0)
	if fs.restarts != 2 || fs.lost != 0 {
		t.Fatalf("forward jump: restarts=%d lost=%d, want 2/0", fs.restarts, fs.lost)
	}
}

func TestStaleDetectionOnTick(t *testing.T) {
	tr := New(Options{StaleAfter: 3 * time.Minute, Now: fixedNow(t0)})
	r := flow.RouterID(5)
	tr.ObserveNetFlow(r, 0, 30, t0, 0)
	stats := tr.Tick(t0)
	if len(stats) != 1 || stats[0].Stale {
		t.Fatalf("fresh feed read as stale: %+v", stats)
	}
	// Silent for two minutes: not yet stale.
	stats = tr.Tick(t0.Add(2 * time.Minute))
	if stats[0].Stale {
		t.Fatalf("stale after 2m with 3m threshold")
	}
	// Four minutes of silence: stale.
	stats = tr.Tick(t0.Add(4 * time.Minute))
	if !stats[0].Stale {
		t.Fatalf("not stale after 4m silence")
	}
	if stats[0].Coverage != 0 {
		t.Fatalf("stale coverage = %v, want 0", stats[0].Coverage)
	}
	if s, _, deg := tr.IngressCoverage(flow.Ingress{Router: r}); !deg || s != 0 {
		t.Fatalf("IngressCoverage of stale router = (%v, deg=%v)", s, deg)
	}
	// Feed resumes: activity re-anchors and staleness clears.
	tr.ObserveNetFlow(r, 30, 30, t0, 0)
	stats = tr.Tick(t0.Add(5 * time.Minute))
	if stats[0].Stale {
		t.Fatalf("stale after resume")
	}
}

func TestLossDegradesIngressCoverage(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	r := flow.RouterID(6)
	// 30 of 130 expected records lost this interval (23%).
	tr.ObserveNetFlow(r, 0, 70, t0, 0)
	tr.ObserveNetFlow(r, 100, 30, t0, 0)
	want := 0.5 * 30.0 / 130.0 // alpha * instantaneous loss fraction
	stats := tr.Tick(t0)
	if got := stats[0].LossFrac; math.Abs(got-want) > 1e-9 {
		t.Fatalf("LossFrac = %v, want %v", got, want)
	}
	score, floor, degraded := tr.IngressCoverage(flow.Ingress{Router: r})
	if !degraded {
		t.Fatalf("lossy feed not degraded (score %v floor %v)", score, floor)
	}
	if math.Abs(score-(1-want)) > 1e-9 {
		t.Fatalf("score = %v, want %v", score, 1-want)
	}
	// Clean ticks decay the EWMA back toward full coverage.
	for i := 0; i < 6; i++ {
		tr.ObserveNetFlow(r, uint32(130+100*i), 100, t0, 0)
		tr.Tick(t0.Add(time.Duration(i+1) * time.Minute))
	}
	if _, _, degraded := tr.IngressCoverage(flow.Ingress{Router: r}); degraded {
		t.Fatalf("coverage still degraded after recovery")
	}
}

func TestUnknownRouterFullCoverage(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	if s, _, deg := tr.IngressCoverage(flow.Ingress{Router: 99}); deg || s != 1 {
		t.Fatalf("pre-tick coverage = (%v, %v), want (1, false)", s, deg)
	}
	tr.ObserveNetFlow(7, 0, 30, t0, 0)
	tr.Tick(t0)
	if s, _, deg := tr.IngressCoverage(flow.Ingress{Router: 99}); deg || s != 1 {
		t.Fatalf("untracked router coverage = (%v, %v), want (1, false)", s, deg)
	}
}

func TestClockSkewDetection(t *testing.T) {
	tr := New(Options{SkewMax: 2 * time.Minute, Now: fixedNow(t0)})
	r := flow.RouterID(8)
	// Exporter clock ten minutes ahead of the collector.
	for i := 0; i < 20; i++ {
		tr.ObserveNetFlow(r, uint32(30*i), 30, t0.Add(10*time.Minute), 0)
	}
	stats := tr.Tick(t0)
	if !stats[0].SkewExceeded {
		t.Fatalf("10m skew with 2m limit not flagged: %+v", stats[0])
	}
	if got := stats[0].SkewSeconds; math.Abs(got-600) > 60 {
		t.Fatalf("SkewSeconds = %v, want ~600", got)
	}
	// Skew halves coverage even without loss.
	if got := stats[0].Coverage; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("skewed coverage = %v, want 0.5", got)
	}
}

func TestObserveRecordFastPath(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	r := flow.RouterID(9)
	for i := 0; i < 1000; i++ {
		tr.ObserveRecord(r)
	}
	fs := feed(t, tr, Key{Proto: ProtoTrace, Router: r})
	if got := fs.records.Load(); got != 1000 {
		t.Fatalf("records = %d, want 1000", got)
	}
	stats := tr.Tick(t0)
	if stats[0].Records != 1000 || stats[0].Stale {
		t.Fatalf("trace tick stat: %+v", stats[0])
	}
}

func TestIPFIXUnknownTemplateResync(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	r, dom := flow.RouterID(10), uint32(7)
	tr.ObserveIPFIX(r, dom, 0, 10, 0, 0, t0)
	// This message carries an unknown-template set: its record total is
	// unknowable, so the tracker must resync instead of booking a gap
	// when the next message's sequence reflects records we never saw.
	tr.ObserveIPFIX(r, dom, 10, 5, 0, 1, t0)
	tr.ObserveIPFIX(r, dom, 40, 10, 0, 0, t0) // 25 unseen records in between
	fs := feed(t, tr, Key{Proto: ProtoIPFIX, Router: r, Domain: dom})
	if fs.lost != 0 {
		t.Fatalf("lost = %d after unknown-template resync, want 0", fs.lost)
	}
	if fs.unknownSets != 1 {
		t.Fatalf("unknownSets = %d, want 1", fs.unknownSets)
	}
	// And accounting is live again after the resync anchor.
	tr.ObserveIPFIX(r, dom, 60, 10, 0, 0, t0) // 10 lost after the anchor at 50
	if fs.lost != 10 {
		t.Fatalf("lost = %d after re-anchored gap, want 10", fs.lost)
	}
}

func TestSamplingChangeCounted(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	r := flow.RouterID(11)
	tr.ObserveNetFlow(r, 0, 30, t0, 100)
	tr.ObserveNetFlow(r, 30, 30, t0, 100)
	tr.ObserveNetFlow(r, 60, 30, t0, 1000)
	fs := feed(t, tr, Key{Proto: ProtoNetFlow, Router: r})
	if fs.samplingChanges != 1 {
		t.Fatalf("samplingChanges = %d, want 1", fs.samplingChanges)
	}
	if !tr.Tick(t0)[0].SamplingChanged {
		t.Fatalf("tick did not flag the sampling change")
	}
	if tr.Tick(t0.Add(time.Minute))[0].SamplingChanged {
		t.Fatalf("sampling change flagged again on a quiet tick")
	}
}

func TestTickSortedAndSnapshotStable(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	tr.ObserveNetFlow(12, 0, 1, t0, 0)
	tr.ObserveIPFIX(3, 256, 0, 1, 0, 0, t0)
	tr.ObserveNetFlow(2, 0, 1, t0, 0)
	tr.ObserveRecord(5)
	want := []string{"ipfix:R3/256", "netflow:R12", "netflow:R2", "trace:R5"}
	stats := tr.Tick(t0)
	if len(stats) != len(want) {
		t.Fatalf("tick returned %d stats, want %d", len(stats), len(want))
	}
	for i, st := range stats {
		if st.Key != want[i] {
			t.Fatalf("tick order[%d] = %q, want %q", i, st.Key, want[i])
		}
	}
	snap := tr.Snapshot()
	for i, e := range snap.Exporters {
		if e.Key != want[i] {
			t.Fatalf("snapshot order[%d] = %q, want %q", i, e.Key, want[i])
		}
	}
	if snap.TrackedFeeds != 4 {
		t.Fatalf("TrackedFeeds = %d, want 4", snap.TrackedFeeds)
	}
}

func TestMaxExportersBound(t *testing.T) {
	tr := New(Options{Now: fixedNow(t0)})
	routers := make([]flow.RouterID, maxExporters+1)
	for i := range routers {
		routers[i] = flow.RouterID(i + 1)
	}
	// Descending key order makes each insert land at the front of the
	// sorted feed list, keeping the fill linear.
	sort.Slice(routers, func(i, j int) bool {
		return Key{Router: routers[i]}.String() > Key{Router: routers[j]}.String()
	})
	for _, r := range routers {
		tr.ObserveNetFlow(r, 0, 1, t0, 0) // the last is over the cap: dropped
	}
	over := flow.RouterID(maxExporters + 2)
	tr.ObserveRecord(over) // over the cap: blackholed, no panic
	tr.ObserveRecord(over)
	snap := tr.Snapshot()
	if snap.TrackedFeeds != maxExporters {
		t.Fatalf("TrackedFeeds = %d, want %d", snap.TrackedFeeds, maxExporters)
	}
	if snap.DroppedFeeds != 2 {
		t.Fatalf("DroppedFeeds = %d, want 2", snap.DroppedFeeds)
	}
}

// FuzzNoteSequence drives the sequence state machine with arbitrary header
// values: it must never panic, and cumulative loss plus delivered records
// must never exceed what the counters imply is a bounded quantity (loss is
// only ever booked from a bounded forward gap).
func FuzzNoteSequence(f *testing.F) {
	f.Add(uint32(0), uint16(30), uint32(30), uint16(30))
	f.Add(uint32(0xFFFFFFF0), uint16(30), uint32(14), uint16(30)) // wrap
	f.Add(uint32(5_000_000), uint16(30), uint32(0), uint16(30))   // restart
	f.Add(uint32(60), uint16(30), uint32(30), uint16(30))         // reorder
	f.Add(uint32(0), uint16(0), uint32(1<<30), uint16(30))        // huge jump
	f.Fuzz(func(t *testing.T, seq1 uint32, n1 uint16, seq2 uint32, n2 uint16) {
		fs := &feedState{}
		fs.noteSequence(seq1, int(n1))
		fs.noteSequence(seq2, int(n2))
		if fs.lost > maxForwardGap {
			t.Fatalf("booked %d lost records from one gap (max %d)", fs.lost, maxForwardGap)
		}
	})
}
