package timeline

import (
	"bytes"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ipd/internal/core"
	"ipd/internal/exphealth"
	"ipd/internal/flow"
	"ipd/internal/journal"
	"ipd/internal/telemetry"
	"ipd/internal/workload"
)

var tBase = time.Unix(1_600_000_000, 0).UTC().Truncate(time.Minute)

// shiftConfig is the core test config (tiny n_cidr factors so small sample
// counts classify) with the collector chained in the canonical deployment
// shape: journal first, then analytics, then the cycle hook.
func shiftConfig(c *Collector, j *journal.Journal) core.Config {
	cfg := core.DefaultConfig()
	cfg.NCidrFactor4 = 0.001
	cfg.NCidrFactor6 = 1e-8
	cfg.OnEvent = func(ev core.Event) {
		if j != nil {
			j.Record(ev)
		}
		c.ObserveEvent(ev)
	}
	cfg.OnCycle = c.OnCycle
	return cfg
}

// feedShift drives cycles minutes of one /24 through eng: ingress a until the
// shift cycle, then ingress b.
func feedShift(tb testing.TB, eng *core.Engine, cycles, shiftAt int, a, b flow.Ingress) {
	tb.Helper()
	for m := 0; m < cycles; m++ {
		ts := tBase.Add(time.Duration(m) * time.Minute)
		in := a
		if m >= shiftAt {
			in = b
		}
		addr := [4]byte{10, 0, 0, 0}
		for i := 0; i < 40; i++ {
			addr[3] = byte(i)
			eng.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(addr), In: in, Bytes: 1000, Packets: 1})
		}
		eng.AdvanceTo(ts.Add(time.Minute))
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	c := NewCollector(Options{})
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	eng, err := core.NewEngine(shiftConfig(c, nil))
	if err != nil {
		t.Fatal(err)
	}

	feedShift(t, eng, 400, 60, tIn1, tIn2)

	// The engine shape series must exist and be non-empty.
	for _, name := range []string{"ranges", "ranges_classified", "ip_states", "classifications", "transitions"} {
		if pts := c.Store().Get(name, 0, 0); len(pts) == 0 {
			t.Fatalf("series %q is empty", name)
		}
	}
	// Per-ingress share series appear under the ingress's String name.
	if pts := c.Store().Get("ingress_share_"+tIn1.String(), 0, 0); len(pts) == 0 {
		t.Fatalf("no share series for %v (have %v)", tIn1, c.Store().Names())
	}

	// The shift is one drift episode on the vanished ingress.
	av := c.Alerts()
	if av.Raised != 1 || av.Cleared != 1 {
		t.Fatalf("raised/cleared %d/%d, want 1/1 (history %+v)", av.Raised, av.Cleared, av.History)
	}
	if len(av.Active) != 0 {
		t.Fatalf("alerts still active at the end: %+v", av.Active)
	}
	if len(av.History) != 2 || !av.History[0].Raise || av.History[1].Raise {
		t.Fatalf("history %+v, want [raise, clear]", av.History)
	}
	if av.History[0].Kind != core.AlertDrift.String() || av.History[0].Subject != tIn1.String() {
		t.Fatalf("raise record %+v, want drift on %v", av.History[0], tIn1)
	}

	// Convergence saw at least the initial classification.
	if cv := c.Convergence(); cv.Total == 0 {
		t.Fatal("convergence histogram is empty")
	}

	// The registry reflects the run.
	dump := metricsDump(t, reg)
	for _, want := range []string{
		"ipd_timeline_samples_total 400",
		`ipd_alerts_total{kind="drift"} 1`,
		`ipd_alerts_active{kind="drift"} 0`,
		"ipd_timeline_series ",
	} {
		if !bytes.Contains(dump, []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, dump)
		}
	}

	// Last-cycle bookkeeping tracks the engine.
	lastCycle, lastAt := c.LastCycle()
	if lastCycle == 0 || lastAt.IsZero() {
		t.Fatalf("LastCycle = %d, %v", lastCycle, lastAt)
	}
}

func metricsDump(t *testing.T, reg *telemetry.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCollectorConcurrentReads hammers every read surface while the engine
// cycles (run with -race).
func TestCollectorConcurrentReads(t *testing.T) {
	c := NewCollector(Options{Window: 32})
	reg := telemetry.NewRegistry()
	c.RegisterMetrics(reg)
	c.SetContention(func() (time.Duration, uint64) { return 0, 0 })
	eng, err := core.NewEngine(shiftConfig(c, nil))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var sink bytes.Buffer
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					c.Window(nil, 0, 0)
					c.Store().Names()
				case 1:
					c.Alerts()
					c.Convergence()
					c.LastCycle()
				case 2:
					sink.Reset()
					if err := c.WriteCSV(&sink, []string{"ranges"}, 0, 0); err != nil {
						t.Error(err)
						return
					}
				case 3:
					sink.Reset()
					if err := reg.WritePrometheus(&sink); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
	}

	feedShift(t, eng, 300, 50, tIn1, tIn2)
	close(stop)
	wg.Wait()

	if got := c.Store().Points(); got == 0 {
		t.Fatal("no points recorded under concurrent reads")
	}
}

// TestAlertReplayByteEqual runs the drift scenario twice into JSONL journals
// and requires byte-identical logs — alert events included — then replays one
// log and checks the reconstruction matches the live engine and counts the
// alert events.
func TestAlertReplayByteEqual(t *testing.T) {
	runOnce := func() (*core.Engine, []byte) {
		var buf bytes.Buffer
		j := journal.New(journal.Options{Capacity: 64, Sink: &buf})
		c := NewCollector(Options{})
		eng, err := core.NewEngine(shiftConfig(c, j))
		if err != nil {
			t.Fatal(err)
		}
		feedShift(t, eng, 400, 60, tIn1, tIn2)
		if err := j.SinkErr(); err != nil {
			t.Fatal(err)
		}
		return eng, buf.Bytes()
	}

	eng1, log1 := runOnce()
	_, log2 := runOnce()
	if !bytes.Equal(log1, log2) {
		t.Fatalf("journals differ between identical runs:\nrun1 %d bytes\nrun2 %d bytes", len(log1), len(log2))
	}
	if !bytes.Contains(log1, []byte(`"alert-raised"`)) || !bytes.Contains(log1, []byte(`"alert-cleared"`)) {
		t.Fatal("journal carries no alert events")
	}

	rp, raised, cleared := replayLog(t, log1)
	if raised != 1 || cleared != 1 {
		t.Fatalf("log carries %d raised / %d cleared alerts, want 1 / 1", raised, cleared)
	}
	if err := core.DiffPartitions(eng1.Snapshot(), rp.Snapshot()); err != nil {
		t.Fatalf("replayed partition does not match the live engine: %v", err)
	}
	if rp.Seq() != eng1.Seq() {
		t.Fatalf("replayed seq %d, engine seq %d", rp.Seq(), eng1.Seq())
	}
}

// replayLog folds a JSONL decision log into a fresh engine and counts the
// alert-raised and alert-cleared events it carries on the way.
func replayLog(t *testing.T, log []byte) (eng *core.Engine, raised, cleared uint64) {
	t.Helper()
	eng, err := core.NewEngine(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = journal.ReplayTail(bytes.NewReader(log), 0, func(ev core.Event) error {
		switch ev.Kind {
		case core.EventAlertRaised:
			raised++
		case core.EventAlertCleared:
			cleared++
		}
		return eng.ApplyEvent(ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, raised, cleared
}

// TestOnCycleEvery checks the cycle cadence through the collector: every
// stage-2 cycle ticks exporter health (the coverage the engine cites) and
// the workload profiler (its decay clock) exactly once, and lands one point
// per series in the store.
func TestOnCycleEvery(t *testing.T) {
	c := NewCollector(Options{})
	health := exphealth.New(exphealth.Options{})
	prof := workload.New(workload.Options{})
	c.SetExporterHealth(health)
	c.SetWorkload(prof)
	eng, err := core.NewEngine(shiftConfig(c, nil))
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 100
	for m := 0; m < cycles; m++ {
		end := tBase.Add(time.Duration(m+1) * time.Minute)
		eng.Observe(flow.Record{Ts: end.Add(-time.Minute), Src: netip.MustParseAddr("10.0.0.1"), In: tIn1, Bytes: 1000, Packets: 1})
		eng.AdvanceTo(end)
		if got := health.Snapshot().LastTick; !got.Equal(end) {
			t.Fatalf("cycle %d: health last ticked at %v, want %v", m+1, got, end)
		}
		if got := prof.Snapshot().Cycles; got != uint64(m+1) {
			t.Fatalf("cycle %d: workload ticked %d times", m+1, got)
		}
	}
	for _, name := range []string{"ranges", "exporters", "workload.records"} {
		pts := c.Store().Get(name, 0, 0)
		if len(pts) != cycles {
			t.Fatalf("series %q has %d points over %d cycles", name, len(pts), cycles)
		}
		for i, p := range pts {
			if p.Cycle != uint64(i+1) {
				t.Fatalf("series %q point %d is cycle %d, want %d", name, i, p.Cycle, i+1)
			}
		}
	}
}
