// exporter-faults is the input-data-quality acceptance scenario: four
// simulated border routers export NetFlow v5 into the collector while a
// fault injector degrades three of them — a datagram-loss burst, a fast
// export clock, and a silent window — and the exporter-health tracker must
// see exactly those three faults, no more.
//
// The run asserts the full observability chain:
//
//   - exporter-loss raises on the lossy router while the burst lasts and
//     clears after it ends — and on no other router;
//   - exporter-stale raises on the silent router and clears after it
//     resumes;
//   - clock-skew raises on the skewed router and clears once its clock is
//     corrected;
//   - an ingress change re-classified during the loss burst carries the
//     degraded-coverage annotation, so the decision's provenance records
//     that it was made over an impaired feed;
//   - the healthy router never alerts.
//
// The -snapshot flag writes the final exporter-health state in the
// /ipd/exporters response shape, for CI artifact upload.
//
//	go run ./examples/exporter-faults
//	go run ./examples/exporter-faults -snapshot exporters.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"time"

	"ipd"
	"ipd/internal/netflow"
)

// The four exporters and their fault schedule (offsets into the run).
var (
	healthyR = ipd.RouterID(1) // 0.0.0.0/2, clean for the whole run
	lossyR   = ipd.RouterID(2) // 64.0.0.0/2, drops datagrams 30m-60m
	skewedR  = ipd.RouterID(4) // 128.0.0.0/2, clock +10m during 20m-80m
	silentR  = ipd.RouterID(9) // 192.0.0.0/2, exports nothing 40m-100m

	lossWindow   = ipd.SimFaultWindow{From: 30 * time.Minute, To: 60 * time.Minute}
	skewWindow   = ipd.SimFaultWindow{From: 20 * time.Minute, To: 80 * time.Minute}
	silentWindow = ipd.SimFaultWindow{From: 40 * time.Minute, To: 100 * time.Minute}
)

const runMinutes, perRouter = 180, 40 // perRouter: records per router and minute

func main() {
	snapOut := flag.String("snapshot", "", "write the final /ipd/exporters snapshot as JSON to this file ('' disables)")
	flag.Parse()
	if err := run(*snapOut); err != nil {
		fmt.Fprintln(os.Stderr, "FAILED:", err)
		os.Exit(1)
	}
}

func run(snapOut string) error {
	cfg := ipd.DefaultConfig()
	cfg.NCidrFactor4 = 0.0005

	// Virtual collector clock, advanced in lockstep with the generated
	// stream so skew measurement is deterministic.
	var now time.Time
	health := ipd.NewExporterHealth(ipd.ExporterHealthOptions{Now: func() time.Time { return now }})
	cfg.Coverage = health.IngressCoverage

	tl := ipd.NewTimelineCollector(ipd.TimelineOptions{})
	tl.SetExporterHealth(health)
	var events []ipd.Event
	cfg.OnEvent = func(ev ipd.Event) {
		events = append(events, ev)
		tl.ObserveEvent(ev)
	}
	cfg.OnCycle = tl.OnCycle

	srv, err := ipd.NewServer(cfg, ipd.DefaultStatTimeConfig())
	if err != nil {
		return err
	}

	// NetFlow collector fed by direct datagram handoff (no UDP): the packer
	// plays the export side, HandleDatagram the receive side, and source
	// attribution runs through per-port exporter registration. Statistical
	// time drops the skewed exporter's records as future, so its clock
	// cannot drag the cycles forward; the raw header skew still reaches the
	// health tracker through the datagram path.
	var batch []ipd.Record
	coll, err := netflow.NewCollector(func(rec ipd.Record) { batch = append(batch, rec) })
	if err != nil {
		return err
	}
	coll.SetHealth(health)
	source := func(r ipd.RouterID) netip.AddrPort {
		return netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), uint16(10000+r))
	}
	for _, r := range []ipd.RouterID{healthyR, lossyR, skewedR, silentR} {
		coll.RegisterExporterPort(source(r), r)
	}

	start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	spec := ipd.SimFaultSpec{
		Seed:       42,
		Loss:       map[ipd.RouterID]float64{lossyR: 0.6},
		LossWindow: map[ipd.RouterID]ipd.SimFaultWindow{lossyR: lossWindow},
		Skew:       map[ipd.RouterID]time.Duration{skewedR: 10 * time.Minute},
		SkewWindow: map[ipd.RouterID]ipd.SimFaultWindow{skewedR: skewWindow},
		Silence:    map[ipd.RouterID]ipd.SimFaultWindow{silentR: silentWindow},
	}
	packer, err := ipd.NewSimV5Packer(spec, start, func(r ipd.RouterID, payload []byte, _ time.Time) {
		coll.HandleDatagram(payload, source(r))
	})
	if err != nil {
		return err
	}

	fmt.Printf("driving %d virtual minutes across 4 exporters (loss %v-%v on R%d, skew %v-%v on R%d, silence %v-%v on R%d)\n",
		runMinutes, lossWindow.From, lossWindow.To, lossyR,
		skewWindow.From, skewWindow.To, skewedR,
		silentWindow.From, silentWindow.To, silentR)

	// Each router owns one /2 quadrant; mid-way through the loss burst the
	// lossy router's traffic moves to a new interface, forcing a
	// re-classification over the impaired feed.
	quadrant := map[ipd.RouterID]byte{healthyR: 0, lossyR: 64, skewedR: 128, silentR: 192}
	for m := 0; m < runMinutes; m++ {
		ts := start.Add(time.Duration(m) * time.Minute)
		now = ts
		for _, r := range []ipd.RouterID{healthyR, lossyR, skewedR, silentR} {
			iface := ipd.IfaceID(7)
			if r == lossyR && m >= 40 {
				iface = 14
			}
			for i := 0; i < perRouter; i++ {
				if err := packer.Add(ipd.Record{
					Ts:      ts,
					Src:     netip.AddrFrom4([4]byte{quadrant[r], 10, 0, byte(i)}),
					In:      ipd.Ingress{Router: r, Iface: iface},
					Bytes:   800,
					Packets: 1,
				}); err != nil {
					return err
				}
			}
		}
		if err := packer.Flush(); err != nil {
			return err
		}
		srv.Ingest(batch)
		batch = batch[:0]
	}
	srv.Finish()
	_, st := srv.Stats()
	fmt.Printf("packer emitted %d datagrams, dropped %d on the export path; statistical time dropped %d stale, %d future records\n\n",
		packer.Emitted, packer.Dropped, st.DroppedStale, st.DroppedFuture)
	if skewed := uint64((skewWindow.To-skewWindow.From)/time.Minute) * perRouter; st.DroppedStale != 0 || st.DroppedFuture != skewed {
		return fmt.Errorf("statistical time dropped %d stale and %d future records, want 0 and the skewed router's %d in-window records",
			st.DroppedStale, st.DroppedFuture, skewed)
	}

	// Collect the exporter-alert lifecycle and the coverage-annotated
	// classifications from the journalable event stream.
	exporterKinds := map[string]bool{
		ipd.AlertExporterLoss.String():  true,
		ipd.AlertExporterStale.String(): true,
		ipd.AlertClockSkew.String():     true,
	}
	type edge struct{ kind, subject, dir string }
	var edges []edge
	degradedClassified := 0
	fmt.Println("exporter alert lifecycle:")
	for _, ev := range events {
		switch ev.Kind {
		case ipd.EventAlertRaised, ipd.EventAlertCleared:
			if !exporterKinds[ev.Detail] {
				continue
			}
			dir := "raise"
			if ev.Kind == ipd.EventAlertCleared {
				dir = "clear"
			}
			edges = append(edges, edge{ev.Detail, ev.Prefix, dir})
			fmt.Printf("  %s  %-14s %-5s %s\n", ev.At.Format("15:04"), ev.Detail, dir, ev.Prefix)
		case ipd.EventClassified:
			if ev.Coverage != nil && ev.Coverage.Code == ipd.ReasonDegradedCoverage {
				degradedClassified++
				fmt.Printf("  %s  classified %v at %v over an impaired feed (%s)\n",
					ev.At.Format("15:04"), ev.Prefix, ev.Ingress, ev.Coverage)
			}
		}
	}

	want := []edge{
		{"clock-skew", "netflow:R4", "raise"},
		{"exporter-loss", "netflow:R2", "raise"},
		{"exporter-stale", "netflow:R9", "raise"},
		{"exporter-loss", "netflow:R2", "clear"},
		{"clock-skew", "netflow:R4", "clear"},
		{"exporter-stale", "netflow:R9", "clear"},
	}
	if len(edges) != len(want) {
		return fmt.Errorf("saw %d exporter alert edges %v, want exactly %d: %v", len(edges), edges, len(want), want)
	}
	for i, e := range edges {
		if e != want[i] {
			return fmt.Errorf("alert edge %d is %v, want %v", i, e, want[i])
		}
	}
	if degradedClassified == 0 {
		return fmt.Errorf("no classification during the loss burst carried the degraded-coverage annotation")
	}
	if active := tl.Alerts().Active; len(active) != 0 {
		return fmt.Errorf("%d alerts still active at the end of the run: %v", len(active), active)
	}

	snap := health.Snapshot()
	if snap.TrackedFeeds != 4 {
		return fmt.Errorf("tracker follows %d feeds, want 4", snap.TrackedFeeds)
	}
	for _, fs := range snap.Exporters {
		if ipd.RouterID(fs.Router) == healthyR && (fs.LostRecords != 0 || fs.Restarts != 0) {
			return fmt.Errorf("healthy feed %s booked loss: %+v", fs.Key, fs)
		}
		if ipd.RouterID(fs.Router) == lossyR && fs.LostRecords == 0 {
			return fmt.Errorf("lossy feed %s booked no lost records", fs.Key)
		}
		if ipd.RouterID(fs.Router) == skewedR && fs.MaxAbsSkewSeconds < 300 {
			return fmt.Errorf("skewed feed %s peaked at %.0fs skew, want >= 300", fs.Key, fs.MaxAbsSkewSeconds)
		}
		if fs.Stale {
			return fmt.Errorf("feed %s still stale at the end of the run", fs.Key)
		}
	}

	fmt.Println("\nOK: the three injected faults raised exactly their three alerts, each cleared after recovery.")
	fmt.Println("OK: the mid-burst re-classification carries degraded-coverage provenance.")
	fmt.Println("OK: the healthy exporter never alerted and booked zero loss.")

	if snapOut != "" {
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(snapOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote exporter snapshot (%d feeds) to %s\n", snap.TrackedFeeds, snapOut)
	}
	return nil
}
