// Command benchmark is the repository's one performance ruler: it drives the
// deployed threading of cmd/ipd-collector from outside — pre-encoded export
// datagrams into the collectors' decode, through the bounded ingest queue,
// into Server.RunQueue (statistical time, stage 1, stage-2 cycles) — against
// a converged partition, on six workloads, and reports the end-to-end
// metrics declared in BENCHMARK.json. With -trace 1 it instead pushes the
// same bytes through one layer at a time and reports the per-layer metrics.
// See README.md in this directory.
//
//	go run ./benchmark -workload steady-v5 -seed 1 -seconds 5 -trace 0
//	go run ./benchmark -workload all
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// defaultShape sizes a run for -seconds s: every trial's timed pass replays
// the block once per requested second. On the reference box a replay takes
// about a third of a second, so the three trials' timed regions add up to
// roughly s seconds of wall time. The work is fixed by the flag, not by a
// clock, which is what makes counts and verdicts repeat exactly.
func defaultShape(seconds, passes int) shape {
	sh := shape{flowsPerMin: 30_000, blockMin: 10, warmBlocks: 6, passBlocks: seconds, trials: 3}
	if passes > 0 {
		sh.passBlocks = passes
	}
	return sh
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "traffic seed: the same seed gives the same datagrams")
		seconds   = flag.Int("seconds", 5, "size of the timed region: one block replay per second in each of the three trials")
		trace     = flag.Int("trace", 0, "0: threaded run, end-to-end metrics; 1: stage-isolated traced run, per-layer metrics")
		passes    = flag.Int("passes", 0, "block replays per timed pass (0 derives it from -seconds)")
		selfcheck = flag.Bool("selfcheck", false, "run two alternating sets of three runs per workload and fail if their medians disagree beyond the metrics' own bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 1 || *passes < 0 {
		flag.Usage()
		os.Exit(2)
	}
	// One producer, one consumer: the threading under test. More Ps would
	// only let the runtime's background workers hide GC cost.
	runtime.GOMAXPROCS(2)

	var sel []workload
	if *name == "all" {
		sel = workloads
	} else if w, ok := findWorkload(*name); ok {
		sel = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	sh := defaultShape(*seconds, *passes)

	if *selfcheck {
		if err := selfCheck(sel, sh, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", err)
			os.Exit(1)
		}
		return
	}
	failed := false
	for _, w := range sel {
		rep := run(w, sh, *seed, *trace == 1)
		if err := emit(rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		failed = failed || !rep.Result.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the full record of one workload's run.
type report struct {
	Workload      string         `json:"workload"`
	Seed          int64          `json:"seed"`
	Trace         bool           `json:"trace"`
	Shape         map[string]int `json:"shape"`
	Env           environment    `json:"env"`
	VerdictDigest string         `json:"verdict_digest"`
	Samples       map[string]int `json:"samples"`
	BlockMs       [][]float64    `json:"block_ms,omitempty"` // wall time of every timed block replay, per trial
	CycleMs       []float64      `json:"cycle_ms,omitempty"` // median-over-trials wall time of every timed stage-2 cycle
	Error         string         `json:"error,omitempty"`
	Result        result         `json:"result"`
}

// run executes one workload and never returns an error: a failed check is a
// report with correct=false and the reason, so the caller still prints it.
func run(w workload, sh shape, seed int64, traced bool) report {
	rep := report{
		Workload: w.name, Seed: seed, Trace: traced, Env: stampEnvironment(),
		Shape: map[string]int{
			"flows_per_min": sh.flowsPerMin, "block_min": sh.blockMin,
			"warm_blocks": sh.warmBlocks, "pass_blocks": sh.passBlocks, "trials": sh.trials,
		},
		Samples: map[string]int{},
	}
	var err error
	if traced {
		err = runTraced(w, sh, seed, &rep)
	} else {
		err = runEndToEnd(w, sh, seed, &rep)
	}
	rep.Result.Correct = err == nil
	if err != nil {
		rep.Error = err.Error()
	}
	if rep.Result.Attempted == 0 {
		rep.Result.Attempted = 1 // the run itself, when it failed before sending anything
		rep.Result.Failed = 1
	}
	return rep
}

// emit prints the report as one JSON line and the driver's result object as
// the last line of standard output, plus a table for people on stderr.
func emit(rep report) error {
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	last, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tseed %d\ttrace %v\tdigest %.12s\t%s\n", rep.Workload, rep.Seed, rep.Trace, rep.VerdictDigest, rep.Error)
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := rep.Result.Metrics[d.Name]; ok {
			fmt.Fprintf(tw, "  %s\t%s\t%s\n", d.Name, formatValue(v.Value), v.Unit)
		}
	}
	var samples []string
	for k, n := range rep.Samples {
		samples = append(samples, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(samples)
	fmt.Fprintf(tw, "  samples\t%s\n", strings.Join(samples, " "))
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", full, last)
	return err
}

func formatValue(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
