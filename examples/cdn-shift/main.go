// cdn-shift replays the paper's §5.3.4 case study ("Reaction to Changes",
// Figs. 13/14) with the longitudinal analytics attached. It runs the Fig 13
// scenario of `ipd-bench fig13` (experiments.ReactionToChange): ranges inside
// a /23 enter through two ingress points; on 2020-07-14 a router maintenance
// moves one interface's traffic, and IPD invalidates and reclassifies the
// affected ranges at the new interface.
//
// A timeline collector watches every cycle and must raise exactly one drift
// alert (the old interface's traffic share collapsing against its EWMA
// baseline) and later clear it exactly once — with zero flap alerts, because
// a single clean reclassification is not instability.
//
//	go run ./examples/cdn-shift
//	go run ./examples/cdn-shift -csv timeline.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"ipd"
	"ipd/internal/experiments"
)

func main() {
	csvOut := flag.String("csv", "", "write the timeline series as CSV to this file after the run ('' disables)")
	flag.Parse()
	if err := run(*csvOut); err != nil {
		fmt.Fprintln(os.Stderr, "FAILED:", err)
		os.Exit(1)
	}
}

func run(csvOut string) error {
	// The collector records every cycle through OnCycle; the drift/flap
	// alerts it returns come back through OnEvent as journalable
	// alert-lifecycle events, so the figure's event log lists them too.
	coll := ipd.NewTimelineCollector(ipd.TimelineOptions{})
	cfg := ipd.DefaultConfig()
	cfg.NCidrFactor4 = 0.001
	cfg.OnEvent = coll.ObserveEvent
	cfg.OnCycle = coll.OnCycle
	res, err := experiments.ReactionToChange(cfg, os.Stdout)
	if err != nil {
		return err
	}

	if !res.ChangeDetected {
		return fmt.Errorf("the ingress change was not detected: %v ends at %v", res.FocusPrefix, res.IngressAtEnd)
	}
	// The maintenance must read as exactly one share-drift episode on the old
	// interface — raised when its traffic collapses, cleared once the EWMA
	// baseline catches up — and never as classification flapping: the ranges
	// each switch ingress once, well under the flap-rate threshold.
	raised, cleared := res.AlertEvents(ipd.AlertDrift)
	flapRaised, flapCleared := res.AlertEvents(ipd.AlertFlap)
	if raised != 1 || cleared != 1 {
		return fmt.Errorf("want exactly 1 drift alert raised and 1 cleared, got %d raised / %d cleared", raised, cleared)
	}
	if flaps := flapRaised + flapCleared; flaps != 0 {
		return fmt.Errorf("a clean reclassification must not flap, got %d flap alert events", flaps)
	}
	if active := coll.Alerts().Active; len(active) != 0 {
		return fmt.Errorf("all alerts should have cleared by the end of the run, %d still active", len(active))
	}

	fmt.Printf("\nOK: %v reclassified to %v.\n", res.FocusPrefix, res.IngressAtEnd)
	fmt.Println("OK: the timeline saw the maintenance as one drift episode (1 raised, 1 cleared, 0 flaps).")
	fmt.Println("Note the paper's robustness property at work: four days of accumulated")
	fmt.Println("evidence keep the old classification alive for hours before the share")
	fmt.Println("drops below q and the range is invalidated and reclassified — exactly how")
	fmt.Println("the deployment behaved through the AS1 maintenance (§5.1.2).")

	if csvOut == "" {
		return nil
	}
	f, err := os.Create(csvOut)
	if err != nil {
		return err
	}
	if err := coll.WriteCSV(f, nil, 0, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote timeline CSV (%d series) to %s\n", coll.Store().Len(), csvOut)
	return nil
}
