package node

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"

	"ipd/internal/core"
)

// Flags are the process settings of every ipd mode: the journal sink,
// checkpoints, the governor and sketch tier, the timeline window, and mutex
// profiling. The engine thresholds among them are bound straight into the
// binary's core.Config. Everything else New builds (journal ring, tracer,
// exporter health, workload profiler, sketch size) runs at its package
// default.
type Flags struct {
	LogLevel string

	Journal string

	CheckpointDir   string
	CheckpointEvery uint64

	Governor  bool
	MaxRanges int
	MemBudget int64

	TimelineWindow int

	MutexProfile int

	Sketch bool

	// q is the -q value, kept for the sketch tier's margin check.
	q *float64
}

// RegisterFlags defines the process flags on fs and returns the values they
// parse into; -factor4, -floor and -q parse into cfg.
func RegisterFlags(fs *flag.FlagSet, cfg *core.Config) *Flags {
	f := &Flags{q: &cfg.Q}
	fs.StringVar(&f.LogLevel, "log-level", "warn", "structured log level: debug, info, warn, error (info and below log one line per stage-2 cycle)")
	fs.StringVar(&f.Journal, "journal", "", "append every lifecycle decision as JSON lines to this file ('' disables the sink; the in-memory journal always runs)")
	fs.StringVar(&f.CheckpointDir, "checkpoint-dir", "", "write periodic CRC-guarded state checkpoints to this directory and restore the newest valid one on startup ('' disables)")
	fs.Uint64Var(&f.CheckpointEvery, "checkpoint-every", 10, "checkpoint every N stage-2 cycles (with -checkpoint-dir)")
	fs.BoolVar(&f.Governor, "governor", false, "enable the resource governor (normal/degraded/emergency degradation; implied by -max-ranges or -mem-budget)")
	fs.IntVar(&f.MaxRanges, "max-ranges", 0, "hard cap on active ranges; splits beyond it are deferred (0 = unlimited, implies -governor)")
	fs.Int64Var(&f.MemBudget, "mem-budget", 0, "live-heap budget in bytes for the governor (0 = unlimited, implies -governor)")
	fs.IntVar(&f.TimelineWindow, "timeline-window", 512, "per-series timeline ring window in cycles; older points are downsampled into coarser tiers (0 disables the timeline)")
	fs.IntVar(&f.MutexProfile, "mutexprofile", 0, "runtime mutex/block profiling fraction for /debug/pprof/{mutex,block} (0 disables)")
	fs.BoolVar(&f.Sketch, "sketch", false, "enable the fixed-memory sketch tier: under governor pressure, unclassified ranges far from the classification threshold degrade per-IP state to a count-min sketch and hydrate back when calm")
	fs.Float64Var(&cfg.NCidrFactor4, "factor4", 0.01, "IPv4 n_cidr factor (64 at deployment traffic rates)")
	fs.Float64Var(&cfg.NCidrFloor, "floor", 4, "n_cidr floor (min samples to classify any range)")
	fs.Float64Var(&cfg.Q, "q", 0.95, "quality threshold")
	return f
}

// Validate checks the flags; the first violated rule wins, so the user
// fixes flags in a stable sequence. It rejects values that earlier versions
// silently "fixed" (a checkpoint cadence of 0 became 1): a typo like
// -checkpoint-every 0 fails loudly instead of checkpointing every cycle.
func (f *Flags) Validate() error {
	if _, err := f.level(); err != nil {
		return err
	}
	switch {
	case f.CheckpointEvery < 1:
		return fmt.Errorf("-checkpoint-every must be >= 1 (got %d)", f.CheckpointEvery)
	case f.MaxRanges < 0:
		return fmt.Errorf("-max-ranges must be >= 0 (got %d)", f.MaxRanges)
	case f.MaxRanges == 1:
		// The partition always holds the v4 and v6 /0 roots.
		return errors.New("-max-ranges 1 cannot hold the two /0 roots (use 0 for unlimited or >= 2)")
	case f.MemBudget < 0:
		return fmt.Errorf("-mem-budget must be >= 0 (got %d)", f.MemBudget)
	case f.TimelineWindow < 0:
		return fmt.Errorf("-timeline-window must be >= 0 (got %d)", f.TimelineWindow)
	case f.MutexProfile < 0:
		return fmt.Errorf("-mutexprofile must be >= 0 (got %d)", f.MutexProfile)
	case f.Sketch && *f.q <= core.ExactMargin:
		// Ranges within the exact margin below q keep exact state, so with
		// the sketch tier on q must exceed it; with the tier off, q is not
		// the tier's business.
		return fmt.Errorf("-q must exceed the sketch tier's exact margin %g with -sketch (got %g)", core.ExactMargin, *f.q)
	}
	return nil
}

func (f *Flags) level() (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(f.LogLevel)); err != nil {
		return lvl, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", f.LogLevel)
	}
	return lvl, nil
}
