package node

import (
	"flag"
	"fmt"
	"log/slog"

	"ipd/internal/cliflags"
	"ipd/internal/core"
)

// Flags are the settings both binaries share: the journal sink,
// checkpoints, the governor and sketch tier, the timeline window, and mutex
// profiling. The shared engine
// thresholds are bound straight into the binary's core.Config. Everything
// else New builds (journal ring, tracer, exporter health, workload
// profiler, sketch size) runs at its package default.
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

// RegisterFlags defines the shared flags on fs and returns the values they
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

// Validate checks the shared flags; the first violated rule wins.
func (f *Flags) Validate() error {
	if _, err := f.level(); err != nil {
		return err
	}
	if err := cliflags.Engine(f.CheckpointEvery, f.MaxRanges, f.MemBudget,
		f.TimelineWindow, f.MutexProfile); err != nil {
		return err
	}
	return cliflags.Sketch(f.Sketch, *f.q)
}

func (f *Flags) level() (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(f.LogLevel)); err != nil {
		return lvl, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", f.LogLevel)
	}
	return lvl, nil
}
