// spoofed-scan is the sketch-tier acceptance scenario: a synthetic tier-1
// stream runs clean for 20 virtual minutes, then a spoofed /32 scan flood
// (tens of thousands of never-repeating source addresses per minute,
// entering through four different border links so no prevalent ingress ever
// emerges) burns for 30 minutes and stops. Two engines consume the
// identical record stream:
//
//   - the REFERENCE engine runs the paper's algorithm unmodified — no
//     governor, no per-IP cap — and its per-IP state balloons with the
//     flood (the Appendix A memory hazard);
//   - the GOVERNED engine caps per-IP state (MaxIPStates), runs the
//     governor on that budget, and enables the fixed-memory sketch tier:
//     under pressure, far-from-threshold ranges degrade their per-source
//     evidence into the shared count-min sketch instead of minting exact
//     entries.
//
// The run must tell exactly this story:
//
//   - the reference engine's per-IP population rises to several multiples
//     of the cap while the governed engine never exceeds it (flat memory);
//   - the governed engine still classifies the legitimate address space:
//     sampled legit sources agree with the reference engine's verdicts
//     within a small tolerance at the height of the flood;
//   - the sketch tier actually engages (degrades > 0, sketched ranges
//     observed) and hydrates back after the flood (hydrates > 0);
//   - every lifecycle event — EventStateMode included — survives a
//     byte-equal JSON round-trip, and replaying the JSONL journal
//     reconstructs the governed engine's partition exactly, sketch
//     provenance flags included.
//
// The -snapshot flag writes the accuracy/memory artifact as JSON, for CI
// artifact upload.
//
//	go run ./examples/spoofed-scan
//	go run ./examples/spoofed-scan -snapshot sketch-accuracy.json
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
	warmupMin = 20 // clean traffic; both engines converge on the legit map
	floodMin  = 30 // spoofed /32 scan flood active
	coolMin   = 15 // clean again; the sketch tier must hydrate back
	flowsMin  = 5000
	scanMin   = 25000 // unique spoofed sources per flood minute
	ipCap     = 12000 // MaxIPStates for the governed engine

	scanIngresses = 4   // flood is spread over this many border links
	parityFloor   = 0.9 // legit-space agreement with the reference engine
)

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
	Parity         float64          `json:"legit_parity_at_flood_end"`
	ParityFloor    float64          `json:"parity_floor"`
	SketchedPeak   int              `json:"sketched_ranges_peak"`
	Sketch         ipd.SketchStatus `json:"sketch"`
	ReferenceFinal int              `json:"reference_ranges_final"`
	GovernedFinal  int              `json:"governed_ranges_final"`
}

func run(snapOut string) error {
	scen, err := ipd.NewSimScenario(ipd.DefaultSimSpec())
	if err != nil {
		return err
	}

	base := ipd.DefaultConfig()
	base.NCidrFactor4 = 0.01
	base.NCidrFloor = 4

	// Reference: the unmodified algorithm, unbounded state.
	refCfg := base
	ref, err := ipd.NewEngine(refCfg)
	if err != nil {
		return err
	}

	// Governed: per-IP budget + governor + sketch tier, journaled.
	govCfg := base
	govCfg.MaxIPStates = ipCap
	govCfg.Sketch = true
	govCfg.SketchWidth = 4096
	govCfg.SketchDepth = 4
	gov, err := ipd.NewGovernor(ipd.GovernorConfig{MaxIPStates: ipCap, SketchTier: true})
	if err != nil {
		return err
	}
	govCfg.Governor = gov
	var events []ipd.Event
	govCfg.OnEvent = func(ev ipd.Event) { events = append(events, ev) }
	eng, err := ipd.NewEngine(govCfg)
	if err != nil {
		return err
	}

	// The flood enters through four real border links of the scenario's
	// topology, so no ingress ever carries a prevalent share of a scan
	// range's votes and the scan space can never classify.
	allIfaces := scen.Topo.Interfaces()
	if len(allIfaces) < scanIngresses {
		return fmt.Errorf("topology has only %d interfaces, need %d", len(allIfaces), scanIngresses)
	}
	scanIf := make([]ipd.Ingress, scanIngresses)
	for i := range scanIf {
		scanIf[i] = allIfaces[(i*len(allIfaces))/scanIngresses].In
	}

	start := scen.Start
	cur := start
	nextCycle := start.Add(time.Minute)
	scanRng := newSplitMix(0xbadc0de)

	var refPeak, govPeak, sketchedPeak int
	var legitSample []netip.Addr

	// feed drives one virtual minute into both engines: the legit stream
	// merged in timestamp order with scanPerMin spoofed records.
	feed := func(scanPerMin int, sample bool) error {
		to := cur.Add(time.Minute)
		gcfg := ipd.SimGenConfig{FlowsPerMinute: flowsMin, Seed: 7}
		legit, err := scen.Records(cur, to, gcfg)
		if err != nil {
			return err
		}
		if sample {
			for i := 0; i < len(legit); i += 5 {
				legitSample = append(legitSample, legit[i].Src)
			}
		}
		scan := scanRecords(cur, scanPerMin, scanRng, scanIf)
		observe := func(rec ipd.Record) {
			for !rec.Ts.Before(nextCycle) {
				ref.AdvanceTo(nextCycle)
				eng.AdvanceTo(nextCycle)
				nextCycle = nextCycle.Add(time.Minute)
			}
			ref.Observe(rec)
			eng.Observe(rec)
		}
		// Two-pointer merge: both slices are already in Ts order.
		i, j := 0, 0
		for i < len(legit) || j < len(scan) {
			if j >= len(scan) || (i < len(legit) && !legit[i].Ts.After(scan[j].Ts)) {
				observe(legit[i])
				i++
			} else {
				observe(scan[j])
				j++
			}
		}
		cur = to
		if n := ref.IPStateCount(); n > refPeak {
			refPeak = n
		}
		if n := eng.IPStateCount(); n > govPeak {
			govPeak = n
		}
		if n := eng.SketchStatus().SketchedRanges; n > sketchedPeak {
			sketchedPeak = n
		}
		if eng.IPStateCount() > ipCap {
			return fmt.Errorf("governed engine holds %d per-IP entries at %v, cap is %d", eng.IPStateCount(), cur, ipCap)
		}
		return nil
	}

	fmt.Printf("driving %d virtual minutes: %dm clean, %dm with %d spoofed /32 sources/min over %d ingresses, %dm clean again\n",
		warmupMin+floodMin+coolMin, warmupMin, floodMin, scanMin, scanIngresses, coolMin)

	for m := 0; m < warmupMin; m++ {
		if err := feed(0, m == warmupMin-1); err != nil {
			return err
		}
	}
	if os.Getenv("SPOOFED_SCAN_DEBUG") != "" {
		a, c := parity(ref, eng, legitSample)
		fmt.Printf("debug: warmup end: ref ip %d gov ip %d parity %d/%d gov state %v sketched %d\n",
			ref.IPStateCount(), eng.IPStateCount(), a, c, gov.State(), eng.SketchStatus().SketchedRanges)
	}
	for m := 0; m < floodMin; m++ {
		if err := feed(scanMin, false); err != nil {
			return err
		}
		if os.Getenv("SPOOFED_SCAN_DEBUG") != "" {
			a, c := parity(ref, eng, legitSample)
			fmt.Printf("debug: flood m%02d: ref ip %d gov ip %d parity %d/%d gov state %v sketched %d ranges ref %d gov %d\n",
				m, ref.IPStateCount(), eng.IPStateCount(), a, c, gov.State(), eng.SketchStatus().SketchedRanges, len(ref.Snapshot()), len(eng.Snapshot()))
		}
	}
	agree, classified := parity(ref, eng, legitSample)
	floodParity := 1.0
	if classified > 0 {
		floodParity = float64(agree) / float64(classified)
	}
	for m := 0; m < coolMin; m++ {
		if err := feed(0, false); err != nil {
			return err
		}
	}
	end := start.Add((warmupMin + floodMin + coolMin) * time.Minute)
	ref.AdvanceTo(end)
	eng.AdvanceTo(end)

	status := eng.SketchStatus()
	fmt.Printf("\nper-IP state peak: reference %d, governed %d (cap %d)\n", refPeak, govPeak, ipCap)
	fmt.Printf("sketch tier: %d degrades, %d hydrates, %d observations, sketched-ranges peak %d, ε=%.5f δ=%.5f, %d sketch bytes\n",
		status.Degrades, status.Hydrates, status.Observes, sketchedPeak, status.Epsilon, status.Delta, status.Bytes)
	fmt.Printf("legit-space parity at flood end: %d/%d sampled sources agree (%.3f, floor %.2f)\n",
		agree, classified, floodParity, parityFloor)

	// The flood must actually be a memory hazard for the unprotected
	// algorithm, and the cap must hold throughout for the governed one
	// (feed already asserted the cap every minute).
	if refPeak < 3*ipCap {
		return fmt.Errorf("reference per-IP peak %d never exceeded 3x the cap %d — the flood is not a pressure test", refPeak, ipCap)
	}
	if classified == 0 {
		return fmt.Errorf("reference engine classified none of the %d sampled legit sources", len(legitSample))
	}
	if floodParity < parityFloor {
		return fmt.Errorf("legit-space parity %.3f at flood end is below the %.2f floor (%d/%d)", floodParity, parityFloor, agree, classified)
	}
	if status.Degrades == 0 || sketchedPeak == 0 {
		return fmt.Errorf("sketch tier never engaged (degrades %d, sketched-ranges peak %d)", status.Degrades, sketchedPeak)
	}
	if status.Hydrates == 0 {
		return fmt.Errorf("no range hydrated back to exact state after the flood")
	}

	// Byte-equal journal round-trip, then a full replay: the JSONL log must
	// rebuild the governed engine's partition exactly — classification AND
	// sketch provenance.
	var jsonl bytes.Buffer
	modeEvents := 0
	for _, ev := range events {
		b1, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		var back ipd.Event
		if err := json.Unmarshal(b1, &back); err != nil {
			return fmt.Errorf("event seq %d does not re-parse: %v (%s)", ev.Seq, err, b1)
		}
		b2, err := json.Marshal(back)
		if err != nil {
			return err
		}
		if !bytes.Equal(b1, b2) {
			return fmt.Errorf("event seq %d JSON round-trip drifted:\n  first:  %s\n  second: %s", ev.Seq, b1, b2)
		}
		if ev.Kind == ipd.EventStateMode {
			modeEvents++
		}
		jsonl.Write(b1)
		jsonl.WriteByte('\n')
	}
	if modeEvents == 0 {
		return fmt.Errorf("journal carries no EventStateMode events despite %d degrades", status.Degrades)
	}
	repCfg := govCfg
	repCfg.OnEvent, repCfg.Governor = nil, nil
	rep, err := ipd.NewEngine(repCfg)
	if err != nil {
		return err
	}
	if _, err := ipd.ReplayJournalTail(&jsonl, 0, rep.ApplyEvent); err != nil {
		return err
	}
	engine := eng.Snapshot()
	if err := ipd.DiffPartitions(engine, rep.Snapshot()); err != nil {
		return fmt.Errorf("replayed partition does not match the engine: %v", err)
	}

	fmt.Printf("\nOK: governed per-IP state stayed at or under the %d cap while the reference peaked at %d.\n", ipCap, refPeak)
	fmt.Printf("OK: legit-space classifications agree with the reference engine (%.3f >= %.2f) at the height of the flood.\n", floodParity, parityFloor)
	fmt.Printf("OK: sketch tier degraded %d times, hydrated %d times, and all %d events (%d mode flips) replay byte-equal.\n",
		status.Degrades, status.Hydrates, len(events), modeEvents)

	if snapOut != "" {
		out := artifact{
			Cap:            ipCap,
			ReferencePeak:  refPeak,
			GovernedPeak:   govPeak,
			Parity:         floodParity,
			ParityFloor:    parityFloor,
			SketchedPeak:   sketchedPeak,
			Sketch:         status,
			ReferenceFinal: len(ref.Snapshot()),
			GovernedFinal:  len(engine),
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(snapOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote sketch accuracy artifact to %s\n", snapOut)
	}
	return nil
}

// parity compares the two engines' verdicts over sampled legit sources:
// for every source the reference engine classifies, the governed engine
// must agree on the ingress.
func parity(ref, eng *ipd.Engine, addrs []netip.Addr) (agree, classified int) {
	for _, a := range addrs {
		ri, ok := ref.Range(a)
		if !ok || !ri.Classified {
			continue
		}
		classified++
		gi, ok := eng.Range(a)
		if ok && gi.Classified && gi.Ingress == ri.Ingress {
			agree++
		}
	}
	return agree, classified
}

// scanRecords fabricates one minute of spoofed /32 scan flood: n unique-ish
// random sources drawn from 200.0.0.0/8 (disjoint from every scenario AS,
// which lives in 10/8..45/8), one flow each, striped across the given
// border links so the votes stay hopelessly mixed.
func scanRecords(start time.Time, n int, rng *splitMix, ifaces []ipd.Ingress) []ipd.Record {
	if n == 0 {
		return nil
	}
	step := time.Minute / time.Duration(n)
	out := make([]ipd.Record, n)
	for i := range out {
		v := rng.next()
		out[i] = ipd.Record{
			Ts:      start.Add(time.Duration(i) * step),
			Src:     netip.AddrFrom4([4]byte{200, byte(v >> 16), byte(v >> 8), byte(v)}),
			Dst:     netip.AddrFrom4([4]byte{100, 64, byte(v >> 32), byte(v >> 24)}),
			In:      ifaces[i%len(ifaces)],
			Bytes:   40,
			Packets: 1,
		}
	}
	return out
}

// splitMix is a tiny deterministic PRNG (splitmix64), so the flood is
// byte-identical across runs without importing math/rand.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
