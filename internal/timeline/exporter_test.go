package timeline

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"ipd/internal/core"
	"ipd/internal/exphealth"
	"ipd/internal/flow"
	"ipd/internal/journal"
)

// expStat builds a minimal feed stat for the analyzer unit tests.
func expStat(key string, router flow.RouterID) exphealth.CycleStat {
	return exphealth.CycleStat{Key: key, Router: router,
		SkewMaxSeconds: 300, StaleAfterSeconds: 180}
}

func kinds(alerts []core.Alert) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		dir := "clear"
		if a.Raise {
			dir = "raise"
		}
		out[i] = a.Kind.String() + "/" + dir
	}
	return out
}

func TestExporterLossHysteresis(t *testing.T) {
	a := newAnalyzer() // raise 0.05, clear 0.01, hold 3
	tick := func(loss float64) []core.Alert {
		st := expStat("netflow:R2", 2)
		st.LossFrac = loss
		return a.evaluateExporters([]exphealth.CycleStat{st}, nil)
	}

	if al := tick(0.2); len(al) != 1 || !al[0].Raise || al[0].Kind != core.AlertExporterLoss {
		t.Fatalf("lossy tick: %v, want one exporter-loss raise", kinds(al))
	}
	if al := tick(0.2); len(al) != 0 {
		t.Fatalf("still lossy: %v, want no re-raise", kinds(al))
	}
	// A single calm tick followed by sub-raise noise must not clear.
	if al := tick(0.005); len(al) != 0 {
		t.Fatalf("first calm tick cleared early: %v", kinds(al))
	}
	if al := tick(0.03); len(al) != 0 { // below raise, above clear: resets calm
		t.Fatalf("noisy tick: %v, want nothing", kinds(al))
	}
	for i := 0; i < 2; i++ {
		if al := tick(0.005); len(al) != 0 {
			t.Fatalf("calm tick %d cleared early: %v", i, kinds(al))
		}
	}
	al := tick(0.005) // third consecutive calm tick: clear
	if len(al) != 1 || al[0].Raise || al[0].Kind != core.AlertExporterLoss {
		t.Fatalf("third calm tick: %v, want one exporter-loss clear", kinds(al))
	}
	if al := tick(0.005); len(al) != 0 {
		t.Fatalf("after clear: %v, want nothing", kinds(al))
	}
	if al[0].Prefix != "netflow:R2" || al[0].Ingress.Router != 2 {
		t.Fatalf("clear subject %q router %d, want feed key and router", al[0].Prefix, al[0].Ingress.Router)
	}
}

func TestExporterStaleAndSkewHysteresis(t *testing.T) {
	a := newAnalyzer()
	tick := func(stale, skewExceeded bool, skew float64) []core.Alert {
		st := expStat("ipfix:R3/256", 3)
		st.Stale, st.SkewExceeded, st.SkewSeconds = stale, skewExceeded, skew
		st.SilentForSeconds = 240
		return a.evaluateExporters([]exphealth.CycleStat{st}, nil)
	}

	al := tick(true, true, 400)
	if got := kinds(al); len(al) != 2 ||
		got[0] != "exporter-stale/raise" || got[1] != "clock-skew/raise" {
		t.Fatalf("degraded tick: %v, want stale+skew raises", got)
	}
	// Skew back within half the limit, feed active again: both clear after
	// the hold. Skew exactly at half the limit counts as calm.
	for i := 1; i < exporterHold; i++ {
		if al := tick(false, false, 150); len(al) != 0 {
			t.Fatalf("calm tick %d: %v, want nothing", i, kinds(al))
		}
	}
	al = tick(false, false, 150)
	if got := kinds(al); len(al) != 2 ||
		got[0] != "exporter-stale/clear" || got[1] != "clock-skew/clear" {
		t.Fatalf("calm tick %d: %v, want stale+skew clears", exporterHold, got)
	}
	// Skew above half the limit but below the limit: neither raises nor
	// counts as calm.
	tick(false, true, 400)
	if al := tick(false, false, 200); len(al) != 0 {
		t.Fatalf("half-limit-exceeded tick: %v, want nothing", kinds(al))
	}
}

// TestExporterAlertReplayByteEqual runs a scenario with an ingress shift, a
// loss burst covering the re-classification, a silent exporter, and a skewed
// clock — twice — and requires byte-identical journals. The log must carry
// all three exporter alert kinds and a degraded-coverage annotation on the
// shifted classification, and replaying it must reconstruct the partition.
func TestExporterAlertReplayByteEqual(t *testing.T) {
	runOnce := func() (*core.Engine, *Collector, []byte) {
		var buf bytes.Buffer
		j := journal.New(journal.Options{Capacity: 64, Sink: &buf})
		c := NewCollector(Options{})
		var now time.Time
		tr := exphealth.New(exphealth.Options{Now: func() time.Time { return now }})
		c.SetExporterHealth(tr)
		cfg := shiftConfig(c, j)
		cfg.Coverage = tr.IngressCoverage
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}

		seq := map[flow.RouterID]uint32{}
		observe := func(r flow.RouterID, records, gap int, ts time.Time) {
			s := seq[r] + uint32(gap)
			tr.ObserveNetFlow(r, s, records, ts, 100)
			seq[r] = s + uint32(records)
		}
		for m := 0; m < 200; m++ {
			ts := tBase.Add(time.Duration(m) * time.Minute)
			now = ts
			in := tIn1
			if m >= 60 {
				in = tIn2
			}
			addr := [4]byte{10, 0, 0, 0}
			for i := 0; i < 40; i++ {
				addr[3] = byte(i)
				eng.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(addr), In: in, Bytes: 1000, Packets: 1})
			}
			observe(1, 40, 0, ts) // clean feed for router 1
			gap := 0
			if m >= 55 && m < 75 {
				gap = 30 // loss burst on router 2 spanning the shift
			}
			observe(2, 40, gap, ts)
			if m < 30 || m >= 100 {
				observe(9, 5, 0, ts) // router 9 goes silent for 70 cycles
			}
			skewed := ts
			if m >= 20 {
				skewed = ts.Add(10 * time.Minute) // past the 5m default limit
			}
			observe(4, 10, 0, skewed)
			eng.AdvanceTo(ts.Add(time.Minute))
		}
		if err := j.SinkErr(); err != nil {
			t.Fatal(err)
		}
		return eng, c, buf.Bytes()
	}

	eng1, c1, log1 := runOnce()
	_, _, log2 := runOnce()
	if !bytes.Equal(log1, log2) {
		t.Fatalf("journals differ between identical runs:\nrun1 %d bytes\nrun2 %d bytes", len(log1), len(log2))
	}
	for _, want := range []string{
		`"exporter-loss"`, `"exporter-stale"`, `"clock-skew"`, `"degraded-coverage"`,
	} {
		if !bytes.Contains(log1, []byte(want)) {
			t.Fatalf("journal carries no %s marker", want)
		}
	}

	// The shifted classification happened during the router-2 loss burst, so
	// a classified event must carry the coverage annotation.
	if !bytes.Contains(log1, []byte(`"coverage":`)) {
		t.Fatal("no event carries a coverage annotation")
	}

	// Loss and stale raised and cleared; the skewed clock never recovers.
	av := c1.Alerts()
	active := map[string]bool{}
	for _, aa := range av.Active {
		active[aa.Kind+" "+aa.Subject] = true
	}
	if !active["clock-skew netflow:R4"] {
		t.Fatalf("clock-skew on netflow:R4 not active at end: %+v", av.Active)
	}
	if active["exporter-loss netflow:R2"] || active["exporter-stale netflow:R9"] {
		t.Fatalf("loss/stale alerts failed to clear: %+v", av.Active)
	}
	seen := map[string]int{}
	for _, rec := range av.History {
		seen[rec.Kind]++
	}
	if seen["exporter-loss"] != 2 || seen["exporter-stale"] != 2 || seen["clock-skew"] != 1 {
		t.Fatalf("alert history counts %v, want loss 2 (raise+clear), stale 2, skew 1", seen)
	}

	// The exporter series landed in the store.
	for _, name := range []string{"exporters", "exporters_stale", "exporter_loss_frac",
		"exporter_skew_max_seconds", "exporter_coverage_min", "exporter_loss_netflow:R2"} {
		if pts := c1.Store().Get(name, 0, 0); len(pts) == 0 {
			t.Fatalf("series %q is empty (have %v)", name, c1.Store().Names())
		}
	}

	rp, raised, cleared := replayLog(t, log1)
	if err := core.DiffPartitions(eng1.Snapshot(), rp.Snapshot()); err != nil {
		t.Fatalf("replayed partition does not match the live engine: %v", err)
	}
	if rp.Seq() != eng1.Seq() {
		t.Fatalf("replayed seq %d, engine seq %d", rp.Seq(), eng1.Seq())
	}
	if raised != av.Raised || cleared != av.Cleared {
		t.Fatalf("log carries %d/%d alerts, collector saw %d/%d",
			raised, cleared, av.Raised, av.Cleared)
	}
}
