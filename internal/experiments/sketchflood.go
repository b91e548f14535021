package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"time"

	"ipd/internal/core"
	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/journal"
	"ipd/internal/stattime"
	"ipd/internal/trafficgen"
)

// SketchFloodResult quantifies the fixed-memory sketch tier under a spoofed
// /32 scan flood: the memory the unprotected algorithm would need, the
// budget the governed server held, and the classification accuracy it kept
// on the legitimate address space while the flood ran.
type SketchFloodResult struct {
	// Cap is the governed server's MaxIPStates budget. ReferencePeak and
	// GovernedPeak are the per-IP populations at their highest between
	// Ingest calls (after each cycle); CapRefusals counts the mints the cap
	// refused (ipd_ip_states_skipped_total), nonzero once the cap was reached.
	Cap           int
	ReferencePeak int
	GovernedPeak  int
	CapRefusals   uint64
	// LegitParity is the share of flood-end verdicts on sampled legitimate
	// sources where the governed server agrees with the unbounded
	// reference (over sources the reference classified).
	LegitParity float64
	// Sketch is the governed server's final sketch-tier accounting.
	Sketch core.SketchStatus
	// SketchedPeak is the most ranges simultaneously in sketched mode.
	SketchedPeak int
	// Compactions counts emergency forced joins in the governed server —
	// the sketch tier exists to keep this at (or near) zero, because
	// compaction discards classified work while sketching only coarsens
	// unclassified evidence.
	Compactions int
	// ReferenceRanges is the reference server's range count at the end.
	ReferenceRanges int
	// Events is the governed server's decision log and Final its partition
	// at the end of the run; CheckJournal replays the one onto the other.
	Events []core.Event
	Final  []core.RangeInfo

	// replayCfg is the governed server's config without its hooks and
	// governor: what an offline replay of Events builds its server from.
	replayCfg core.Config
	// floodEnd is the governed partition when the flood stops, while
	// ranges are still sketched; floodEndSeq is the last event before it.
	floodEnd    []core.RangeInfo
	floodEndSeq uint64
}

// sketchFloodMix is the splitmix64 behind the spoofed source draw, locally
// seeded so the experiment is deterministic and independent of the
// trafficgen stream state.
type sketchFloodMix struct{ s uint64 }

func (r *sketchFloodMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SketchFlood drives the identical record stream — a clean warm-up, then a
// spoofed /32 scan flood striped over four border links, then calm again —
// through two servers, an unbounded reference and a governed one with the
// sketch tier enabled, and reports the memory/accuracy trade the tier
// achieves (the robustness gap Appendix A leaves open: the paper's memory
// proxy is never bounded against adversarial source cardinality).
func SketchFlood(opts Options) (SketchFloodResult, error) {
	spec := trafficgen.DefaultSpec()
	spec.Seed = opts.Seed
	scn, err := trafficgen.NewScenario(spec)
	if err != nil {
		return SketchFloodResult{}, err
	}

	// The flood mints ~5 unique sources per legit flow; the budget admits
	// under half of the resulting steady-state population, so the governor
	// must engage for the run to stay inside it.
	scanPerMin := 5 * opts.FlowsPerMinute
	cap := (12 * opts.FlowsPerMinute) / 5

	ref, err := core.NewServer(opts.engineConfig(scn.Topo), stattime.DefaultConfig())
	if err != nil {
		return SketchFloodResult{}, err
	}
	govCfg := opts.engineConfig(scn.Topo)
	govCfg.MaxIPStates = cap
	govCfg.Sketch = true
	gov, err := governor.New(governor.Config{MaxIPStates: cap, SketchTier: true})
	if err != nil {
		return SketchFloodResult{}, err
	}
	res := SketchFloodResult{Cap: cap, replayCfg: govCfg}
	govCfg.Governor = gov
	govCfg.OnEvent = func(ev core.Event) {
		res.Events = append(res.Events, ev)
		if ev.Kind == core.EventCompacted {
			res.Compactions++
		}
	}
	srv, err := core.NewServer(govCfg, stattime.DefaultConfig())
	if err != nil {
		return SketchFloodResult{}, err
	}

	allIfaces := scn.Topo.Interfaces()
	scanIf := make([]flow.Ingress, 4)
	for i := range scanIf {
		scanIf[i] = allIfaces[(i*len(allIfaces))/len(scanIf)].In
	}

	const warmupMin, floodMin, coolMin = 15, 20, 10
	gen := trafficgen.GenConfig{FlowsPerMinute: opts.FlowsPerMinute, Seed: opts.Seed}
	rng := &sketchFloodMix{s: uint64(opts.Seed) ^ 0xbadc0de}
	cur := scn.Start
	var legitSample []netip.Addr
	var recs []flow.Record

	// feedMinute hands both servers the next minute's legitimate records,
	// interleaved with its scan records, in the same batches.
	feedMinute := func(scan int, sample bool) error {
		to := cur.Add(time.Minute)
		legit, err := scn.Records(cur, to, gen)
		if err != nil {
			return err
		}
		if sample {
			for i := 0; i < len(legit); i += 5 {
				legitSample = append(legitSample, legit[i].Src)
			}
		}
		scanStep := time.Minute / time.Duration(max(scan, 1))
		recs = recs[:0]
		li, si := 0, 0
		for li < len(legit) || si < scan {
			scanTs := cur.Add(time.Duration(si) * scanStep)
			if si >= scan || (li < len(legit) && !legit[li].Ts.After(scanTs)) {
				recs = append(recs, legit[li])
				li++
				continue
			}
			v := rng.next()
			recs = append(recs, flow.Record{
				Ts:      scanTs,
				Src:     netip.AddrFrom4([4]byte{200, byte(v >> 16), byte(v >> 8), byte(v)}),
				In:      scanIf[si%len(scanIf)],
				Bytes:   40,
				Packets: 1,
			})
			si++
		}
		cur = to
		for i := 0; i < len(recs); i += 512 {
			batch := recs[i:min(i+512, len(recs))]
			ref.Ingest(batch)
			srv.Ingest(batch)
			res.ReferencePeak = max(res.ReferencePeak, ref.IPStateCount())
			res.GovernedPeak = max(res.GovernedPeak, srv.IPStateCount())
			res.SketchedPeak = max(res.SketchedPeak, srv.SketchStatus().SketchedRanges)
		}
		return dropped(srv) // ref's binner drops exactly what srv's does
	}

	for m := 0; m < warmupMin; m++ {
		if err := feedMinute(0, m == warmupMin-1); err != nil {
			return res, err
		}
	}
	for m := 0; m < floodMin; m++ {
		if err := feedMinute(scanPerMin, false); err != nil {
			return res, err
		}
	}
	res.floodEnd = srv.Snapshot()
	if n := len(res.Events); n > 0 {
		res.floodEndSeq = res.Events[n-1].Seq
	}
	agree, classified := 0, 0
	for _, a := range legitSample {
		ri, ok := ref.Range(a)
		if !ok || !ri.Classified {
			continue
		}
		classified++
		gi, ok := srv.Range(a)
		if ok && gi.Classified && gi.Ingress == ri.Ingress {
			agree++
		}
	}
	if classified > 0 {
		res.LegitParity = float64(agree) / float64(classified)
	}
	for m := 0; m < coolMin; m++ {
		if err := feedMinute(0, false); err != nil {
			return res, err
		}
	}

	ref.Finish()
	srv.Finish()
	res.CapRefusals = srv.Telemetry().Counter("ipd_ip_states_skipped_total", "").Value()
	res.Sketch = srv.SketchStatus()
	res.ReferenceRanges = len(ref.Snapshot())
	res.Final = srv.Snapshot()

	w := opts.out()
	fprintf(w, "# Spoofed-scan flood: fixed-memory sketch tier vs the unbounded algorithm\n")
	fprintf(w, "# paper gap: Appendix A's memory proxy is never bounded against source-cardinality attacks\n")
	fprintf(w, "per-IP peak: reference=%d governed=%d (cap %d, %d mints refused at the cap)\n", res.ReferencePeak, res.GovernedPeak, res.Cap, res.CapRefusals)
	fprintf(w, "legit parity at flood end: %.3f  sketched-ranges peak: %d  degrades: %d  hydrates: %d  compactions: %d\n",
		res.LegitParity, res.SketchedPeak, res.Sketch.Degrades, res.Sketch.Hydrates, res.Compactions)
	return res, nil
}

// CheckJournal checks that every governed event survives a byte-equal JSON
// round-trip and that the resulting JSONL log, replayed into a fresh server,
// rebuilds the governed partition (ranges, classifications and sketch
// flags) both when the flood stops and at the end. It returns the number of
// state-mode events in the log.
func (r SketchFloodResult) CheckJournal() (modeEvents int, err error) {
	var jsonl bytes.Buffer
	for _, ev := range r.Events {
		b1, err := json.Marshal(ev)
		if err != nil {
			return 0, err
		}
		var back core.Event
		if err := json.Unmarshal(b1, &back); err != nil {
			return 0, fmt.Errorf("event seq %d does not re-parse: %v (%s)", ev.Seq, err, b1)
		}
		b2, err := json.Marshal(back)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(b1, b2) {
			return 0, fmt.Errorf("event seq %d JSON round-trip drifted:\n  first:  %s\n  second: %s", ev.Seq, b1, b2)
		}
		if ev.Kind == core.EventStateMode {
			modeEvents++
		}
		jsonl.Write(append(b1, '\n'))
	}
	rep, err := core.NewServer(r.replayCfg, stattime.DefaultConfig())
	if err != nil {
		return 0, err
	}
	apply := func(ev core.Event) error {
		if err := rep.ApplyEvent(ev); err != nil {
			return err
		}
		if ev.Seq != r.floodEndSeq {
			return nil
		}
		if err := core.DiffPartitions(r.floodEnd, rep.Snapshot()); err != nil {
			return fmt.Errorf("replayed partition does not match the governed server at flood end: %v", err)
		}
		return nil
	}
	if _, err := journal.ReplayTail(&jsonl, 0, apply); err != nil {
		return 0, err
	}
	if err := core.DiffPartitions(r.Final, rep.Snapshot()); err != nil {
		return 0, fmt.Errorf("replayed partition does not match the governed server: %v", err)
	}
	return modeEvents, nil
}
