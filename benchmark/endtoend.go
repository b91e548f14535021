package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// runEndToEnd runs sh.trials independent trials of the threaded pipeline —
// each with its own set-up, so setup_s is a median too — and folds them into
// the end-to-end metrics. The trials do identical work block for block and
// cycle for cycle (same seed, deterministic pipeline), so every timing is
// first reduced to the median over the trials of that block or cycle: one
// trial disturbed by a neighbour on the shared box does not move it, and a
// pass whose blocks differ (cold start) is still summed correctly. Counts are
// medians over the trials. A block's CPU is what the whole process spent
// while it was being sent: the consumer trails the producer by at most the
// high-water mark, a twelfth of a block.
func runEndToEnd(w workload, sh shape, seed int64, rep *report) error {
	var (
		trials                             []trial
		blockMs, blockCPUMs, cycleMs       [][]float64
		setups, allocs, bytes              []float64
		heaps, accuracy, delivered, starts []float64
	)
	for i := 0; i < sh.trials; i++ {
		tr, err := runTrial(w, sh, seed)
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		trials = append(trials, tr)
		ps := tr.pass
		blockMs = append(blockMs, millis(ps.blockTimes))
		blockCPUMs = append(blockCPUMs, millis(ps.blockCPU))
		cycleMs = append(cycleMs, millis(ps.cycles))
		setups = append(setups, tr.setup.Seconds())
		allocs = append(allocs, ratio(float64(ps.mallocs), float64(ps.sent)))
		bytes = append(bytes, ratio(float64(ps.bytes), float64(ps.sent)))
		heaps = append(heaps, float64(tr.heapLive)/(1<<20))
		accuracy = append(accuracy, tr.verdict.accuracy)
		delivered = append(delivered, ratio(float64(ps.delivered), float64(ps.sent)))
		starts = append(starts, float64(tr.startRanges))
		rep.Result.Attempted += ps.sent
		rep.Result.Failed += ps.sent - ps.delivered
		if w.observed {
			rep.Samples["scrapes"] += ps.scrapes
			rep.Samples["journal_events"] += int(tr.journaled)
		}
	}
	first := trials[0]
	rep.VerdictDigest = first.verdict.digest
	cycles, err := acrossTrials(cycleMs)
	if err != nil {
		return fmt.Errorf("stage-2 cycles: %w", err)
	}
	blocks, _ := acrossTrials(blockMs) // every pass has sh.passBlocks blocks
	blockCPU, _ := acrossTrials(blockCPUMs)
	rep.BlockMs, rep.CycleMs = blockMs, cycles
	rep.Samples["blocks_per_trial"] = len(blocks)
	rep.Samples["cycles_per_trial"] = len(cycles)
	rep.Samples["trials"] = len(trials)
	rep.Samples["start_ranges"] = int(median(starts))
	rep.Samples["final_ranges"] = first.verdict.ranges
	rep.Samples["final_mapped"] = first.verdict.mapped
	rep.Samples["records_per_block"] = int(first.pass.sent) / len(blocks)

	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	m.set("records_per_s", ratio(float64(first.pass.sent), sum(blocks)/1e3))
	m.set("records_per_core_s", ratio(float64(first.pass.sent), sum(blockCPU)/1e3))
	m.set("allocs_per_record", median(allocs))
	m.set("alloc_bytes_per_record", median(bytes))
	m.set("cycle_p50_ms", median(cycles))
	m.set("heap_live_mb", median(heaps))
	m.set("verdict_accuracy", median(accuracy))
	m.set("delivered_share", median(delivered))
	rep.Result.Metrics = m.values
	if err := m.complete(); err != nil {
		return err
	}

	// The same seed must give the same verdicts, trial after trial.
	for i, tr := range trials[1:] {
		if tr.verdict.digest != first.verdict.digest {
			return fmt.Errorf("verdict digest of trial %d (%.12s) differs from trial 0 (%.12s)", i+1, tr.verdict.digest, first.verdict.digest)
		}
	}
	if w.cold {
		if first.startRanges != 2 {
			return fmt.Errorf("cold pass started from %d ranges, want the 2 roots", first.startRanges)
		}
	} else if want := minWarmRanges(sh); first.startRanges < want {
		return fmt.Errorf("warm pass started from %d ranges, want at least %d", first.startRanges, want)
	}
	if rep.Result.Failed != 0 {
		return fmt.Errorf("%d of %d records sent did not reach the engine", rep.Result.Failed, rep.Result.Attempted)
	}
	if w.observed && first.seqFaults != 0 {
		return fmt.Errorf("exporter health booked %d lost or reordered records or exporter restarts on a gapless replay", first.seqFaults)
	}
	return nil
}

// acrossTrials reduces the trials' series to one: element i is the median
// of the trials' i-th samples. The series must be equally long — the trials
// replay the same datagrams.
func acrossTrials(series [][]float64) ([]float64, error) {
	out := make([]float64, len(series[0]))
	at := make([]float64, len(series))
	for _, s := range series[1:] {
		if len(s) != len(out) {
			return nil, fmt.Errorf("trials disagree on the number of samples: %d and %d", len(out), len(s))
		}
	}
	for i := range out {
		for t, s := range series {
			at[t] = s[i]
		}
		out[i] = median(at)
	}
	return out, nil
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// minWarmRanges is the partition size a warmed pass must start from: 2 000
// ranges at the benchmark's rate, proportionally fewer at toy rates.
func minWarmRanges(sh shape) int {
	if n := sh.flowsPerMin / 25; n < 2000 {
		return n
	}
	return 2000
}

// environment stamps a report with what produced it.
type environment struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	When       string `json:"when"`
}

func stampEnvironment() environment {
	env := environment{
		Go: runtime.Version(), CPU: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), When: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

// selfCheckRuns is how many runs each of the two sets makes per workload.
const selfCheckRuns = 3

// selfCheck is the repeatability proof: two sets of untraced runs of the
// same code; every end-to-end metric's two medians must agree within the
// metric's own bound and every verdict digest must be identical. The sets'
// runs alternate (A B A B A B per workload), so a slow spell of the shared
// box falls on both.
func selfCheck(sel []workload, sh shape, seed int64) error {
	var bad []string
	for _, w := range sel {
		var sets [2]map[string][]float64
		digest := ""
		for i := 0; i < 2*selfCheckRuns; i++ {
			rep := run(w, sh, seed, false)
			if err := emit(rep); err != nil {
				return err
			}
			if !rep.Result.Correct {
				return fmt.Errorf("%s, run %d: %s", w.name, i, rep.Error)
			}
			if digest == "" {
				digest = rep.VerdictDigest
			} else if rep.VerdictDigest != digest {
				bad = append(bad, fmt.Sprintf("%s: verdict digest %.12s vs %.12s", w.name, digest, rep.VerdictDigest))
			}
			if sets[i%2] == nil {
				sets[i%2] = map[string][]float64{}
			}
			for name, v := range rep.Result.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
		}
		for _, d := range endToEnd {
			x, y := median(sets[0][d.Name]), median(sets[1][d.Name])
			diff := ratio(y-x, x)
			status := "ok"
			if diff > d.Bound || -diff > d.Bound {
				status = "DISAGREE"
				bad = append(bad, fmt.Sprintf("%s %s: %s vs %s (bound %.1f%%)", w.name, d.Name, formatValue(x), formatValue(y), 100*d.Bound))
			}
			fmt.Fprintf(os.Stderr, "selfcheck  %-20s %-24s %12s %12s  %+6.2f%%  bound %4.1f%%  %s\n",
				w.name, d.Name, formatValue(x), formatValue(y), 100*diff, 100*d.Bound, status)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d disagreements:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	fmt.Fprintln(os.Stderr, "selfcheck: both sets agree within every metric's bound")
	return nil
}
