// hot-prefix is the workload-profiler acceptance scenario: a synthetic
// tier-1 stream runs clean for 20 virtual minutes, then an elephant
// aggregate (one /24 sourcing ~45% of all flows) burns for 40 minutes and
// stops. The always-on workload profiler must see exactly that story:
//
//   - the hot-prefix alert raises once on exactly the elephant /24 while
//     the burst lasts and clears exactly once after the decayed share
//     falls back below the clear threshold — no other subject alerts;
//   - at the burst peak the elephant /24 is the top aggregate, and its
//     share climbs clearly above the calm baseline's top share;
//   - after the burst the epoch decay hands most of that back: the final
//     top share is nearer the calm baseline than the burst peak;
//   - the alert lifecycle events survive a byte-equal JSON round-trip, so
//     a replayed journal reproduces the exact same alert history.
//
// The -snapshot flag writes the burst-peak and final /ipd/workload
// snapshots as JSON, for CI artifact upload.
//
//	go run ./examples/hot-prefix
//	go run ./examples/hot-prefix -snapshot workload.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"time"

	"ipd"
)

const (
	warmupMin = 20 // clean traffic before the burst
	burstMin  = 40 // elephant active
	coolMin   = 60 // clean traffic again; decay must clear the alert
	flowsMin  = 3000
	hotShare  = 0.45
)

func main() {
	snapOut := flag.String("snapshot", "", "write the burst-peak and final workload snapshots as JSON to this file ('' disables)")
	flag.Parse()
	if err := run(*snapOut); err != nil {
		fmt.Fprintln(os.Stderr, "FAILED:", err)
		os.Exit(1)
	}
}

func run(snapOut string) error {
	scen, err := ipd.NewSimScenario(ipd.DefaultSimSpec())
	if err != nil {
		return err
	}
	// The elephant lives in the scenario's highest-volume AS, so its flows
	// keep entering through a legitimately routed ingress.
	hotPfx := netip.PrefixFrom(scen.ASes[0].Prefixes[0].Addr(), 24).Masked()

	cfg := ipd.DefaultConfig()

	// Virtual clock: the profiler's latency view tracks the stream's own
	// timestamps, so the run is deterministic end to end.
	var now time.Time
	wl := ipd.NewWorkloadProfiler(ipd.WorkloadOptions{
		SampleN:    1, // profile every record: exact shares, exact story
		DecayEvery: 4, // fast epoch decay so the clear lands inside the run
		Now:        func() time.Time { return now },
	})
	tl := ipd.NewTimelineCollector(ipd.TimelineOptions{})
	tl.SetWorkload(wl)
	var events []ipd.Event
	cfg.OnEvent = func(ev ipd.Event) {
		events = append(events, ev)
		tl.ObserveEvent(ev)
	}
	cfg.OnCycle = tl.OnCycle

	eng, err := ipd.NewEngine(cfg)
	if err != nil {
		return err
	}

	start := scen.Start
	cur := start
	nextCycle := start.Add(time.Minute)
	feed := func(to time.Time, hot float64) error {
		gcfg := ipd.SimGenConfig{FlowsPerMinute: flowsMin, Seed: 7, HotFraction: hot, HotPrefix: hotPfx}
		err := scen.Stream(cur, to, gcfg, func(rec ipd.Record) bool {
			now = rec.Ts
			for !rec.Ts.Before(nextCycle) {
				eng.AdvanceTo(nextCycle)
				nextCycle = nextCycle.Add(time.Minute)
			}
			wl.ObserveRecord(rec)
			eng.Observe(rec)
			return true
		})
		cur = to
		return err
	}

	fmt.Printf("driving %d virtual minutes: %dm clean, %dm with %.0f%% of flows from %v, %dm clean again\n",
		warmupMin+burstMin+coolMin, warmupMin, burstMin, hotShare*100, hotPfx, coolMin)

	if err := feed(start.Add(warmupMin*time.Minute), 0); err != nil {
		return err
	}
	calm := wl.Snapshot()
	if err := feed(start.Add((warmupMin+burstMin)*time.Minute), hotShare); err != nil {
		return err
	}
	peak := wl.Snapshot()
	if err := feed(start.Add((warmupMin+burstMin+coolMin)*time.Minute), 0); err != nil {
		return err
	}
	eng.AdvanceTo(start.Add((warmupMin + burstMin + coolMin) * time.Minute))
	final := wl.Snapshot()

	// The alert lifecycle, from the journalable event stream.
	type edge struct{ subject, dir string }
	var edges []edge
	fmt.Println("\nhot-prefix alert lifecycle:")
	for _, ev := range events {
		if ev.Kind != ipd.EventAlertRaised && ev.Kind != ipd.EventAlertCleared {
			continue
		}
		if ev.Detail != ipd.AlertHotPrefix.String() {
			continue
		}
		dir := "raise"
		if ev.Kind == ipd.EventAlertCleared {
			dir = "clear"
		}
		edges = append(edges, edge{ev.Prefix, dir})
		fmt.Printf("  %s  hot-prefix %-5s %s (%s)\n", ev.At.Format("15:04"), dir, ev.Prefix, ev.Reason)
	}
	want := []edge{
		{hotPfx.String(), "raise"},
		{hotPfx.String(), "clear"},
	}
	if len(edges) != len(want) {
		return fmt.Errorf("saw %d hot-prefix alert edges %v, want exactly %d: %v", len(edges), edges, len(want), want)
	}
	for i, e := range edges {
		if e != want[i] {
			return fmt.Errorf("alert edge %d is %v, want %v", i, e, want[i])
		}
	}
	// Scoped to hot-prefix: the Zipf background traffic is allowed its own
	// flap/drift noise, but the elephant's alert must not outlive the run.
	for _, a := range tl.Alerts().Active {
		if a.Kind == ipd.AlertHotPrefix.String() {
			return fmt.Errorf("hot-prefix alert on %s still active at the end of the run", a.Subject)
		}
	}

	// The burst-peak profile must pin the elephant: top aggregate is the
	// hot /24 at roughly the injected share.
	if len(peak.TopAggregates) == 0 {
		return fmt.Errorf("burst-peak snapshot has no top aggregates")
	}
	top := peak.TopAggregates[0]
	if top.Prefix != hotPfx.String() {
		return fmt.Errorf("burst-peak top aggregate is %s, want %s", top.Prefix, hotPfx)
	}
	if top.Share < 0.3 {
		return fmt.Errorf("burst-peak top share %.3f, want >= 0.3", top.Share)
	}
	// Relative share story: the calm baseline's top aggregate is just the
	// head of the Zipf background, the burst must visibly concentrate the
	// mass on one /24, and the decay must hand most of that back by the end
	// of the run.
	calmTop, peakTop, finalTop := topShare(calm), topShare(peak), topShare(final)
	fmt.Printf("\ntop-aggregate share: calm %.3f -> burst %.3f -> final %.3f\n", calmTop, peakTop, finalTop)
	if peakTop < calmTop+0.15 {
		return fmt.Errorf("burst-peak top share %.3f is not clearly above the calm baseline %.3f", peakTop, calmTop)
	}
	if finalTop > (calmTop+peakTop)/2 {
		return fmt.Errorf("final top share %.3f did not decay back toward the calm baseline %.3f (burst peak %.3f)",
			finalTop, calmTop, peakTop)
	}

	// Byte-equal journal replay: every alert event must survive
	// JSON -> Event -> JSON unchanged, so a replayed journal reconstructs
	// the identical alert history (reason codes included).
	for _, ev := range events {
		if ev.Kind != ipd.EventAlertRaised && ev.Kind != ipd.EventAlertCleared {
			continue
		}
		b1, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		var back ipd.Event
		if err := json.Unmarshal(b1, &back); err != nil {
			return fmt.Errorf("alert event does not re-parse: %v (%s)", err, b1)
		}
		b2, err := json.Marshal(back)
		if err != nil {
			return err
		}
		if !bytes.Equal(b1, b2) {
			return fmt.Errorf("alert event JSON round-trip drifted:\n  first:  %s\n  second: %s", b1, b2)
		}
	}

	fmt.Printf("\nburst-peak profile: top %s share %.2f (ingress %s)\n", top.Prefix, top.Share, top.Ingress)
	fmt.Println("\nOK: the elephant raised exactly one hot-prefix alert on its /24 and it cleared after the burst.")
	fmt.Println("OK: the top-aggregate share rose with the burst and decayed back afterwards.")
	fmt.Println("OK: alert lifecycle events are byte-identical across a JSON journal round-trip.")

	if snapOut != "" {
		out := struct {
			Peak  ipd.WorkloadSnapshot `json:"burst_peak"`
			Final ipd.WorkloadSnapshot `json:"final"`
		}{peak, final}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(snapOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote workload snapshot to %s\n", snapOut)
	}
	return nil
}

func topShare(s ipd.WorkloadSnapshot) float64 {
	if len(s.TopAggregates) == 0 {
		return 0
	}
	return s.TopAggregates[0].Share
}
