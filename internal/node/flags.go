package node

import (
	"flag"
	"fmt"
	"log/slog"
	"time"

	"ipd/internal/cliflags"
	"ipd/internal/core"
)

// Flags are the settings both binaries share: the journal, tracing,
// checkpoints, the governor and sketch tier, the timeline, exporter health,
// the workload profiler, and the delta-transport heartbeat. The shared
// engine thresholds are bound straight into the binary's core.Config.
type Flags struct {
	LogLevel string

	Journal    string
	JournalCap int

	TraceCap    int
	TraceSample int

	CheckpointDir   string
	CheckpointEvery uint64

	Governor  bool
	MaxRanges int
	MemBudget int64

	TimelineWindow int
	TimelineEvery  int

	StaleAfter time.Duration
	SkewMax    time.Duration

	MutexProfile int

	WorkloadTopK int

	Sketch       bool
	SketchWidth  int
	SketchDepth  int
	SketchMargin float64

	Heartbeat time.Duration
}

// RegisterFlags defines the shared flags on fs and returns the values they
// parse into; -factor4, -floor and -q parse into cfg.
func RegisterFlags(fs *flag.FlagSet, cfg *core.Config) *Flags {
	f := &Flags{}
	fs.StringVar(&f.LogLevel, "log-level", "warn", "structured log level: debug, info, warn, error (info and below log one line per stage-2 cycle)")
	fs.StringVar(&f.Journal, "journal", "", "append every lifecycle decision as JSON lines to this file ('' disables the sink; the in-memory journal always runs)")
	fs.IntVar(&f.JournalCap, "journal-cap", 4096, "in-memory decision journal ring capacity")
	fs.IntVar(&f.TraceCap, "trace-cap", 8192, "span flight-recorder ring capacity (tracing runs while an HTTP address or a trace file is set; tail it at /ipd/traces)")
	fs.IntVar(&f.TraceSample, "trace-sample", 1024, "sample 1-in-N per-record spans (read, bin, observe); stage-2 cycle phases are always traced")
	fs.StringVar(&f.CheckpointDir, "checkpoint-dir", "", "write periodic CRC-guarded state checkpoints to this directory and restore the newest valid one on startup ('' disables)")
	fs.Uint64Var(&f.CheckpointEvery, "checkpoint-every", 10, "checkpoint every N stage-2 cycles (with -checkpoint-dir)")
	fs.BoolVar(&f.Governor, "governor", false, "enable the resource governor (normal/degraded/emergency degradation; implied by -max-ranges or -mem-budget)")
	fs.IntVar(&f.MaxRanges, "max-ranges", 0, "hard cap on active ranges; splits beyond it are deferred (0 = unlimited, implies -governor)")
	fs.Int64Var(&f.MemBudget, "mem-budget", 0, "live-heap budget in bytes for the governor (0 = unlimited, implies -governor)")
	fs.IntVar(&f.TimelineWindow, "timeline-window", 512, "per-series timeline ring window in cycles; older points are downsampled into coarser tiers (0 disables the timeline)")
	fs.IntVar(&f.TimelineEvery, "timeline-every", 1, "sample the timeline every N stage-2 cycles")
	fs.DurationVar(&f.StaleAfter, "exporter-stale-after", 3*time.Minute, "flag a router's feed stale (and raise AlertExporterStale) once it has been silent this long (statistical time)")
	fs.DurationVar(&f.SkewMax, "skew-max", 5*time.Minute, "export-clock skew limit for the exporter-health coverage score (AlertClockSkew beyond it)")
	fs.IntVar(&f.MutexProfile, "mutexprofile", 0, "runtime mutex/block profiling fraction for /debug/pprof/{mutex,block} (0 disables)")
	fs.IntVar(&f.WorkloadTopK, "workload-topk", 32, "workload profiler heavy-hitter capacity (top-K /24 or /48 aggregates)")
	fs.BoolVar(&f.Sketch, "sketch", false, "enable the fixed-memory sketch tier: under governor pressure, unclassified ranges far from the classification threshold degrade per-IP state to a count-min sketch and hydrate back when calm")
	fs.IntVar(&f.SketchWidth, "sketch-width", 1024, "count-min sketch width in counters per row (16..1048576; error bound ε = e/width of window mass)")
	fs.IntVar(&f.SketchDepth, "sketch-depth", 4, "count-min sketch depth in rows (1..16; bound failure probability δ = e^-depth)")
	fs.Float64Var(&f.SketchMargin, "sketch-exact-margin", 0.05, "keep exact per-IP state while a range's top share is within this margin below q (0 uses the engine default)")
	fs.DurationVar(&f.Heartbeat, "heartbeat", 2*time.Second, "delta transport keepalive interval; peers declare a connection dead after 4x this")
	fs.Float64Var(&cfg.NCidrFactor4, "factor4", 0.01, "IPv4 n_cidr factor (64 at deployment traffic rates)")
	fs.Float64Var(&cfg.NCidrFloor, "floor", 4, "n_cidr floor (min samples to classify any range)")
	fs.Float64Var(&cfg.Q, "q", 0.95, "quality threshold")
	return f
}

// Validate checks the shared flags; the first violated rule wins. The
// heartbeat is left to the binaries: it only matters with delta shipping on.
func (f *Flags) Validate() error {
	if _, err := f.level(); err != nil {
		return err
	}
	if err := cliflags.Engine(f.CheckpointEvery, f.TraceSample, f.MaxRanges, f.MemBudget,
		f.TimelineWindow, f.TimelineEvery, f.MutexProfile); err != nil {
		return err
	}
	if err := cliflags.ExporterHealth(f.StaleAfter, f.SkewMax); err != nil {
		return err
	}
	if err := cliflags.Workload(f.WorkloadTopK); err != nil {
		return err
	}
	return cliflags.Sketch(f.Sketch, f.SketchWidth, f.SketchDepth, f.SketchMargin)
}

func (f *Flags) level() (slog.Level, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(f.LogLevel)); err != nil {
		return lvl, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", f.LogLevel)
	}
	return lvl, nil
}
