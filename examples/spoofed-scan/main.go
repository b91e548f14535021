// spoofed-scan is the sketch-tier acceptance scenario. It runs
// experiments.SketchFlood at 5 000 flows/min: a synthetic tier-1 stream runs
// clean for 15 virtual minutes, then a spoofed /32 scan flood (25 000
// never-repeating source addresses per minute, entering through four
// different border links so no prevalent ingress ever emerges) burns for 20
// minutes and stops. Two servers consume the identical record stream:
//
//   - the REFERENCE server runs the paper's algorithm unmodified — no
//     governor, no per-IP cap — and its per-IP state balloons with the
//     flood (the Appendix A memory hazard);
//   - the GOVERNED server caps per-IP state (MaxIPStates 12 000), runs the
//     governor on that budget, and enables the fixed-memory sketch tier:
//     under pressure, far-from-threshold ranges degrade their per-source
//     evidence into the shared count-min sketch instead of minting exact
//     entries.
//
// The run must tell exactly this story:
//
//   - the reference server's per-IP population rises to several multiples
//     of the cap while the governed server never exceeds it (flat memory);
//   - the governed server still classifies the legitimate address space:
//     sampled legit sources agree with the reference server's verdicts
//     within a small tolerance at the height of the flood;
//   - the sketch tier actually engages (degrades > 0, sketched ranges
//     observed) and hydrates back after the flood (hydrates > 0);
//   - every lifecycle event — EventStateMode included — survives a
//     byte-equal JSON round-trip, and replaying the JSONL journal
//     reconstructs the governed server's partition exactly, sketch flags
//     included, both when the flood stops and at the end.
//
// The -snapshot flag writes the accuracy/memory artifact as JSON, for CI
// artifact upload.
//
//	go run ./examples/spoofed-scan
//	go run ./examples/spoofed-scan -snapshot sketch-accuracy.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ipd"
	"ipd/internal/experiments"
)

const parityFloor = 0.9 // legit-space agreement with the reference server

func main() {
	snapOut := flag.String("snapshot", "", "write the accuracy/memory artifact as JSON to this file ('' disables)")
	flag.Parse()
	if err := run(*snapOut); err != nil {
		fmt.Fprintln(os.Stderr, "FAILED:", err)
		os.Exit(1)
	}
}

// artifact is the -snapshot JSON: the numbers CI archives per run.
type artifact struct {
	Cap            int              `json:"max_ip_states"`
	ReferencePeak  int              `json:"reference_ip_peak"`
	GovernedPeak   int              `json:"governed_ip_peak"`
	CapRefusals    uint64           `json:"cap_refusals"`
	Parity         float64          `json:"legit_parity_at_flood_end"`
	ParityFloor    float64          `json:"parity_floor"`
	SketchedPeak   int              `json:"sketched_ranges_peak"`
	Sketch         ipd.SketchStatus `json:"sketch"`
	Compactions    int              `json:"compactions"`
	ReferenceFinal int              `json:"reference_ranges_final"`
	GovernedFinal  int              `json:"governed_ranges_final"`
}

func run(snapOut string) error {
	opts := experiments.DefaultOptions()
	opts.FlowsPerMinute = 5000
	opts.Writer = os.Stdout
	res, err := experiments.SketchFlood(opts)
	if err != nil {
		return err
	}

	// The flood must actually be a memory hazard for the unprotected
	// algorithm, and the cap must hold throughout for the governed one.
	if res.GovernedPeak > res.Cap || res.CapRefusals == 0 {
		return fmt.Errorf("governed server held %d per-IP entries and refused %d mints; want at most the cap %d, reached", res.GovernedPeak, res.CapRefusals, res.Cap)
	}
	if res.ReferencePeak < 3*res.Cap {
		return fmt.Errorf("reference per-IP peak %d never exceeded 3x the cap %d — the flood is not a pressure test", res.ReferencePeak, res.Cap)
	}
	// Parity is 0 when the reference classified none of the sampled sources.
	if res.LegitParity < parityFloor {
		return fmt.Errorf("legit-space parity %.3f at flood end is below the %.2f floor", res.LegitParity, parityFloor)
	}
	if res.Sketch.Degrades == 0 || res.SketchedPeak == 0 {
		return fmt.Errorf("sketch tier never engaged (degrades %d, sketched-ranges peak %d)", res.Sketch.Degrades, res.SketchedPeak)
	}
	if res.Sketch.Hydrates == 0 {
		return fmt.Errorf("no range hydrated back to exact state after the flood")
	}
	modeEvents, err := res.CheckJournal()
	if err != nil {
		return err
	}
	if modeEvents == 0 {
		return fmt.Errorf("journal carries no EventStateMode events despite %d degrades", res.Sketch.Degrades)
	}

	fmt.Printf("\nOK: governed per-IP state stayed at or under the %d cap (%d mints refused) while the reference peaked at %d.\n", res.Cap, res.CapRefusals, res.ReferencePeak)
	fmt.Printf("OK: legit-space classifications agree with the reference server (%.3f >= %.2f) at the height of the flood.\n", res.LegitParity, parityFloor)
	fmt.Printf("OK: sketch tier degraded %d times, hydrated %d times (ε=%.5f), and all %d events (%d mode flips) replay byte-equal.\n",
		res.Sketch.Degrades, res.Sketch.Hydrates, res.Sketch.Epsilon, len(res.Events), modeEvents)

	if snapOut == "" {
		return nil
	}
	b, err := json.MarshalIndent(artifact{
		Cap:            res.Cap,
		ReferencePeak:  res.ReferencePeak,
		GovernedPeak:   res.GovernedPeak,
		CapRefusals:    res.CapRefusals,
		Parity:         res.LegitParity,
		ParityFloor:    parityFloor,
		SketchedPeak:   res.SketchedPeak,
		Sketch:         res.Sketch,
		Compactions:    res.Compactions,
		ReferenceFinal: res.ReferenceRanges,
		GovernedFinal:  len(res.Final),
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(snapOut, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote sketch accuracy artifact to %s\n", snapOut)
	return nil
}
