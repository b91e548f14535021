package journal

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"

	"ipd/internal/core"
	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/telemetry"
)

var (
	inA = flow.Ingress{Router: 1, Iface: 1}
	inB = flow.Ingress{Router: 2, Iface: 1}
)

// mkEvent builds a minimal event with a given seq for ring tests.
func mkEvent(seq uint64, prefix string, children ...string) core.Event {
	return core.Event{Seq: seq, Kind: core.EventCreated, Prefix: prefix, Children: children}
}

func TestRingOverflowAndBounds(t *testing.T) {
	j := New(Options{Capacity: 4})
	for seq := uint64(1); seq <= 10; seq++ {
		j.Record(mkEvent(seq, fmt.Sprintf("10.0.0.%d/32", seq)))
	}
	if j.Len() != 4 {
		t.Errorf("Len = %d, want 4", j.Len())
	}
	if j.Recorded() != 10 {
		t.Errorf("Recorded = %d, want 10", j.Recorded())
	}
	if j.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", j.Dropped())
	}
	oldest, newest := j.Bounds()
	if oldest != 7 || newest != 10 {
		t.Errorf("Bounds = (%d, %d), want (7, 10)", oldest, newest)
	}
	// Evicted events disappear from the per-prefix index.
	if h := j.History("10.0.0.3/32"); h != nil {
		t.Errorf("History of evicted prefix = %v, want nil", h)
	}
	if h := j.History("10.0.0.9/32"); len(h) != 1 || h[0].Seq != 9 {
		t.Errorf("History of retained prefix = %v, want seq 9", h)
	}
}

func TestSince(t *testing.T) {
	j := New(Options{Capacity: 8})
	for seq := uint64(1); seq <= 6; seq++ {
		j.Record(mkEvent(seq, "0.0.0.0/0"))
	}
	got := j.Since(3, 0)
	if len(got) != 3 || got[0].Seq != 4 || got[2].Seq != 6 {
		t.Errorf("Since(3) = %d events starting %d, want 3 starting 4", len(got), got[0].Seq)
	}
	if got := j.Since(3, 2); len(got) != 2 || got[0].Seq != 4 {
		t.Errorf("Since(3, limit 2) wrong: %v", got)
	}
	if got := j.Since(6, 0); len(got) != 0 {
		t.Errorf("Since(latest) = %v, want empty", got)
	}
	if got := j.Since(0, 0); len(got) != 6 {
		t.Errorf("Since(0) = %d events, want all 6", len(got))
	}
	empty := New(Options{Capacity: 2})
	if got := empty.Since(0, 0); len(got) != 0 {
		t.Errorf("Since on empty journal = %v", got)
	}
}

func TestHistoryIndexesChildren(t *testing.T) {
	j := New(Options{Capacity: 8})
	j.Record(mkEvent(1, "0.0.0.0/0"))
	split := core.Event{Seq: 2, Kind: core.EventSplit, Prefix: "0.0.0.0/0",
		Children: []string{"0.0.0.0/1", "128.0.0.0/1"}}
	j.Record(split)
	j.Record(core.Event{Seq: 3, Kind: core.EventClassified, Prefix: "0.0.0.0/1", Ingress: inA})

	if h := j.History("0.0.0.0/0"); len(h) != 2 {
		t.Errorf("History(root) = %d events, want 2 (created + split)", len(h))
	}
	// A child prefix finds the split that created it plus its own events.
	h := j.History("0.0.0.0/1")
	if len(h) != 2 || h[0].Seq != 2 || h[1].Seq != 3 {
		t.Errorf("History(child) = %+v, want split then classified", h)
	}
	if h := j.History("128.0.0.0/1"); len(h) != 1 || h[0].Seq != 2 {
		t.Errorf("History(other child) = %+v, want just the split", h)
	}
	if h := j.History("1.2.3.0/24"); h != nil {
		t.Errorf("History(unknown) = %v, want nil", h)
	}
}

func TestRegisterMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	j := New(Options{Capacity: 2, Registry: reg})
	j.Record(mkEvent(1, "0.0.0.0/0"))
	j.Record(mkEvent(2, "0.0.0.0/0"))
	j.Record(mkEvent(3, "0.0.0.0/0"))
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ipd_journal_events_total 3",
		"ipd_journal_overflow_total 1",
		"ipd_journal_retained 2",
		"ipd_journal_sink_errors_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestSinkErrorLatches(t *testing.T) {
	j := New(Options{Capacity: 2, Sink: failingWriter{err: fmt.Errorf("disk full")}})
	j.Record(mkEvent(1, "0.0.0.0/0"))
	j.Record(mkEvent(2, "0.0.0.0/0"))
	if err := j.SinkErr(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("SinkErr = %v, want the first write error", err)
	}
	// Recording continues despite sink failures.
	if j.Len() != 2 {
		t.Errorf("Len = %d after sink errors, want 2", j.Len())
	}
}

// engineConfig mirrors the core test parameterization: tiny n_cidr factors
// so a few hundred records drive the full lifecycle.
func engineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.NCidrFactor4 = 0.001
	cfg.NCidrFactor6 = 1e-8
	return cfg
}

// driveEngine runs a workload with splits, classifications, an ingress
// flip (invalidation + re-classification), a join, and an expiry — every
// event kind the replayer must handle.
func driveEngine(t *testing.T, cfg core.Config) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_600_000_000, 0).UTC().Truncate(time.Minute)
	feed := func(ts time.Time, src string, n int, in flow.Ingress) {
		a4 := netip.MustParseAddr(src).As4()
		for i := 0; i < n; i++ {
			a4[3] = byte(i % 256)
			a4[2] = byte(i / 256)
			e.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(a4), In: in, Bytes: 1000, Packets: 1})
		}
	}
	feed(base, "10.0.0.0", 100, inA)
	feed(base, "140.0.0.0", 100, inB)
	e.AdvanceTo(base.Add(1 * time.Minute)) // split /0
	feed(base.Add(1*time.Minute), "10.0.0.0", 100, inA)
	feed(base.Add(1*time.Minute), "140.0.0.0", 100, inB)
	e.AdvanceTo(base.Add(2 * time.Minute)) // classify both /1
	feed(base.Add(2*time.Minute), "10.0.0.0", 100, inA)
	feed(base.Add(2*time.Minute), "140.0.0.0", 100, inA)
	e.AdvanceTo(base.Add(3 * time.Minute)) // invalidate 128/1
	feed(base.Add(3*time.Minute), "10.0.0.0", 100, inA)
	feed(base.Add(3*time.Minute), "140.0.0.0", 100, inA)
	e.AdvanceTo(base.Add(4 * time.Minute)) // re-classify + join to /0
	feed(base.Add(4*time.Minute), "10.0.0.0", 100, inA)
	feed(base.Add(4*time.Minute), "140.0.0.0", 100, inB)
	e.AdvanceTo(base.Add(5 * time.Minute)) // mixed again: invalidate /0
	feed(base.Add(5*time.Minute), "10.0.0.0", 100, inA)
	feed(base.Add(5*time.Minute), "140.0.0.0", 100, inB)
	e.AdvanceTo(base.Add(6 * time.Minute)) // re-split /0
	return e
}

// replayLog is the offline replay: a fresh engine (OnEvent nil, so it starts
// at seq 0) folds the whole JSONL decision log through ApplyEvent.
func replayLog(t *testing.T, rd io.Reader) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTail(rd, 0, eng.ApplyEvent); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestReplayReconstructsSnapshot is the acceptance check: replaying the
// JSONL decision log of a run reconstructs the engine's final partition and
// classification state exactly.
func TestReplayReconstructsSnapshot(t *testing.T) {
	var sink bytes.Buffer
	cfg := engineConfig()
	j := New(Options{Capacity: 64, Sink: &sink})
	cfg.OnEvent = j.Record
	e := driveEngine(t, cfg)

	rp := replayLog(t, &sink)
	if err := core.DiffPartitions(e.Snapshot(), rp.Snapshot()); err != nil {
		t.Errorf("replayed snapshot != engine snapshot: %v", err)
	}
	// Sanity: the workload exercised structural events, so the partition is
	// non-trivial.
	if n := rp.RangeCount(); n < 3 {
		t.Errorf("workload produced only %d ranges; the test lost its teeth", n)
	}
	if rp.Seq() != e.Seq() {
		t.Errorf("replayed seq %d, engine seq %d", rp.Seq(), e.Seq())
	}
}

// TestReplayFromRing replays Journal.All (no JSONL round trip) and must
// agree with the engine as well.
func TestReplayFromRing(t *testing.T) {
	cfg := engineConfig()
	j := New(Options{Capacity: 1024})
	cfg.OnEvent = j.Record
	e := driveEngine(t, cfg)
	if j.Dropped() != 0 {
		t.Fatalf("ring overflowed (%d dropped); raise capacity for this test", j.Dropped())
	}
	rp, err := core.NewEngine(engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range j.All() {
		if err := rp.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.DiffPartitions(e.Snapshot(), rp.Snapshot()); err != nil {
		t.Errorf("ring replay diverged from engine snapshot: %v", err)
	}
}

// TestReplayErrors pins ReplayTail's error reporting: a decode error and an
// apply error both abort with the line number, the latter after counting
// what was applied.
func TestReplayErrors(t *testing.T) {
	apply := func(core.Event) error { return nil }
	if _, err := ReplayTail(strings.NewReader("{broken\n"), 0, apply); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("ReplayTail on garbage = %v, want line-1 error", err)
	}
	eng, err := core.NewEngine(engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := `{"seq":1,"kind":"created","prefix":"0.0.0.0/0"}` + "\n\n" +
		`{"seq":2,"kind":"classified","prefix":"1.2.3.0/24","ingress":"R1.1"}` + "\n"
	n, err := ReplayTail(strings.NewReader(log), 0, eng.ApplyEvent)
	if n != 1 || err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("ReplayTail = %d, %v; want 1 applied and a line-3 error", n, err)
	}
}

// TestReplayRejectsNonIncreasingSeq pins the run-boundary check: a seq that
// does not exceed the previous line's aborts the replay with both line
// numbers, also where both lines sit at or below afterSeq and would
// otherwise be skipped.
func TestReplayRejectsNonIncreasingSeq(t *testing.T) {
	created := func(seq int) string {
		return fmt.Sprintf(`{"seq":%d,"kind":"created","prefix":"0.0.0.0/0"}`+"\n", seq)
	}
	for _, c := range []struct {
		name     string
		log      string
		afterSeq uint64
		want     string
	}{
		{"second-run-appended", created(1) + created(2) + created(3) + created(1), 0, "line 4: seq 1 does not follow seq 3 of line 3"},
		{"repeat-below-after", created(1) + "\n" + created(1) + created(5), 4, "line 3: seq 1 does not follow seq 1 of line 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			n, err := ReplayTail(strings.NewReader(c.log), c.afterSeq, func(core.Event) error { return nil })
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("ReplayTail = %d, %v; want an error containing %q", n, err, c.want)
			}
		})
	}
	n, err := ReplayTail(strings.NewReader(created(1)+created(2)+created(7)), 1, func(core.Event) error { return nil })
	if n != 2 || err != nil {
		t.Fatalf("increasing seqs with a gap: ReplayTail = %d, %v; want 2 applied", n, err)
	}
}

// TestEventJSONRoundTrip pins the JSONL wire format: kinds and reasons by
// name, ingress in R-notation.
func TestEventJSONRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	j := New(Options{Capacity: 8, Sink: &sink})
	at := time.Unix(1_600_000_000, 0).UTC()
	j.Record(core.Event{Seq: 1, Cycle: 2, Kind: core.EventClassified, Prefix: "10.0.0.0/8",
		Ingress: inA, At: at,
		Reason: core.Reason{Code: core.ReasonPrevalentIngress, Observed: 0.97, Threshold: 0.95,
			Samples: 412, MinSamples: 96}})
	line := sink.String()
	for _, want := range []string{`"kind":"classified"`, `"ingress":"R1.1"`, `"code":"prevalent-ingress"`} {
		if !strings.Contains(line, want) {
			t.Errorf("JSONL line missing %s: %s", want, line)
		}
	}
	// A hand-written line replays too.
	rp := replayLog(t, strings.NewReader(
		`{"seq":1,"kind":"created","prefix":"0.0.0.0/0","ingress":"R0.0","reason":{"code":"root"}}`+"\n"))
	if rp.Seq() != 1 {
		t.Errorf("replay of hand-written line left the engine at seq %d, want 1", rp.Seq())
	}
}

// driveGovernedEngine runs a resource-governed workload through overload and
// recovery: mixed scan traffic grows per-IP state past the governor's
// thresholds, emergency compaction force-joins the populated subtree, an
// injected panic quarantines one range, and calm cycles walk the state back
// to normal. It exercises EventGovernor, EventCompacted, and
// EventQuarantined alongside the ordinary lifecycle kinds.
func driveGovernedEngine(t *testing.T, cfg core.Config) *core.Engine {
	t.Helper()
	g, err := governor.New(governor.Config{MaxIPStates: 360})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Governor = g
	// The fault targets the idle v6 root so the quarantine (which resets the
	// range) cannot drain the v4 state the overload needs.
	faulted := false
	cfg.CycleFault = func(p netip.Prefix) {
		if !faulted && !p.Addr().Is4() {
			faulted = true
			panic("journal-test fault")
		}
	}
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_600_000_000, 0).UTC().Truncate(time.Minute)
	// One record per /28 block (the cidr_max mask) with alternating
	// ingresses, so ranges stay mixed and per-IP state grows one entry per
	// record.
	feedMixed := func(ts time.Time, src string, n int) {
		a4 := netip.MustParseAddr(src).As4()
		for i := 0; i < n; i++ {
			a4[3] = byte(i % 16 * 16)
			a4[2] = byte(i / 16)
			in := inA
			if i%2 == 1 {
				in = inB
			}
			e.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(a4), In: in, Bytes: 1000, Packets: 1})
		}
	}
	feedMixed(base, "10.0.0.0", 150)
	e.AdvanceTo(base.Add(1 * time.Minute)) // normal; root splits
	feedMixed(base.Add(1*time.Minute), "10.1.0.0", 150)
	e.AdvanceTo(base.Add(2 * time.Minute)) // degraded
	feedMixed(base.Add(2*time.Minute), "10.2.0.0", 300)
	e.AdvanceTo(base.Add(3 * time.Minute)) // emergency + compaction
	e.AdvanceTo(base.Add(9 * time.Minute)) // hysteresis back to normal
	if !faulted {
		t.Fatal("fault never injected; governed workload shape changed")
	}
	return e
}

// TestReplayGovernedRun is the governed sibling of
// TestReplayReconstructsSnapshot: a journal carrying governor transitions,
// forced compactions, and a panic quarantine must still replay to the exact
// engine partition.
func TestReplayGovernedRun(t *testing.T) {
	var sink bytes.Buffer
	cfg := engineConfig()
	j := New(Options{Capacity: 1024, Sink: &sink})
	cfg.OnEvent = j.Record
	e := driveGovernedEngine(t, cfg)

	seen := map[core.EventKind]bool{}
	for _, ev := range j.All() {
		seen[ev.Kind] = true
	}
	for _, kind := range []core.EventKind{core.EventGovernor, core.EventCompacted, core.EventQuarantined} {
		if !seen[kind] {
			t.Fatalf("governed run emitted no %v; the test lost its teeth", kind)
		}
	}

	rp := replayLog(t, &sink)
	if err := core.DiffPartitions(e.Snapshot(), rp.Snapshot()); err != nil {
		t.Errorf("replayed snapshot != engine snapshot: %v", err)
	}
}
