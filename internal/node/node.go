// Package node assembles one IPD process around its engine. cmd/ipd's trace
// and listen modes differ only in how records reach the engine; everything
// around it is built here, in dependency order:
//
//  1. New: the logger, the decision journal and its JSONL sink, exporter
//     health, the workload profiler, the timeline (or its tick-only
//     fallback), the resource governor, and the engine config hooks that
//     connect them. The binary then builds its core.Server from
//     Node.Config; both modes feed it through Server.Ingest.
//  2. Attach: metric registration on the server's registry, the workload
//     and lock-contention feeds, the checkpoint manager and the server's
//     checkpoint cadence, and — only when something can read them — the
//     tracer and the cycle watchdog.
//  3. Restore: the newest valid checkpoint plus the journal tail after it.
//  4. Handler: the debug surface (/metrics, /debug/vars, pprof, /ipd/*,
//     /healthz, /readyz).
//  5. Close: the journal sink's error, which ipd exits non-zero on.
//
// The benchmark and the examples wire the same parts by hand: each needs a
// virtual clock, a sampling rate, or a subsystem left out that ipd does
// not offer as a flag.
package node

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"

	"ipd/internal/core"
	"ipd/internal/exphealth"
	"ipd/internal/governor"
	"ipd/internal/journal"
	"ipd/internal/persist"
	"ipd/internal/timeline"
	"ipd/internal/trace"
	"ipd/internal/workload"
)

// Node is one assembled process. The exported fields are the parts the
// binary feeds or reads; a nil field is a part the flags left out.
type Node struct {
	// Config is the engine configuration with every node-driven hook set;
	// build the server from it.
	Config core.Config

	Logger   *slog.Logger
	Journal  *journal.Journal
	Health   *exphealth.Tracker
	Workload *workload.Profiler
	Timeline *timeline.Collector // nil with -timeline-window 0
	Governor *governor.Governor  // nil unless enabled or implied by a budget

	// Set by Attach.
	Tracer      *trace.Tracer    // nil unless traced
	Checkpoints *persist.Manager // nil without -checkpoint-dir

	flags    *Flags
	sink     *os.File
	sinkBase int64 // the sink's size before the engine journaled anything
	srv      *core.Server
	watchdog *core.Watchdog
}

// GovernorInputs are what a mode with an ingest queue hands the governor:
// the queue's capacity and depth (a fourth budget axis) and a hook run on
// every state change. A trace run reads a file, which needs no queue, and
// passes the zero value.
type GovernorInputs struct {
	QueueCap     int
	QueueDepth   func() int
	OnTransition func(from, to governor.State)
}

// New builds the parts that must exist before the engine, and returns them
// with Config: cfg plus the -sketch switch and the hooks into the
// journal, exporter health, workload profiler, timeline and governor. f
// must have passed Validate.
func New(f *Flags, cfg core.Config, gi GovernorInputs) (*Node, error) {
	lvl, err := f.level()
	if err != nil {
		return nil, err
	}
	n := &Node{
		flags:  f,
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})),
	}
	if f.MutexProfile > 0 {
		runtime.SetMutexProfileFraction(f.MutexProfile)
		runtime.SetBlockProfileRate(f.MutexProfile)
	}
	cfg.Logger = n.Logger
	if f.Sketch {
		cfg.Sketch = true
	}

	if f.Governor || f.MaxRanges > 0 || f.MemBudget > 0 {
		gcfg := governor.Config{
			MaxRanges:  f.MaxRanges,
			MemBudget:  uint64(f.MemBudget),
			QueueCap:   gi.QueueCap,
			QueueDepth: gi.QueueDepth,
			SketchTier: f.Sketch,
		}
		if hook := gi.OnTransition; hook != nil {
			gcfg.OnTransition = func(from, to governor.State, _ governor.Usage) { hook(from, to) }
		}
		if n.Governor, err = governor.New(gcfg); err != nil {
			return nil, err
		}
		cfg.Governor = n.Governor
		cfg.MaxRanges = f.MaxRanges
	}

	// Exporter health scores every router's feed each cycle; the engine
	// annotates classifications made over a degraded one. The workload
	// profiler corrects export-to-ingest latency by the tracker's per-router
	// skew estimate.
	n.Health = exphealth.New(exphealth.Options{})
	cfg.Coverage = n.Health.IngressCoverage
	n.Workload = workload.New(workload.Options{Skew: n.Health.RouterSkew})

	// The journal sink is written per decision, unbuffered, so a crash leaves
	// every recorded event in the file. With -checkpoint-dir the file's
	// existing tail is the replay source of the next restore: append to it
	// instead of truncating it, after cutting off the partial line a crash
	// in the middle of a write leaves, so the engine's first event starts a
	// line of its own. A cold start has nothing to replay onto, so an old
	// journal is moved aside first rather than appended to.
	var jopts journal.Options
	if f.Journal != "" {
		mode := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
		if f.CheckpointDir != "" {
			mode = os.O_RDWR | os.O_CREATE | os.O_APPEND
			if err := n.rotateColdJournal(); err != nil {
				return nil, fmt.Errorf("journal %s: %w", f.Journal, err)
			}
		}
		if n.sink, err = os.OpenFile(f.Journal, mode, 0o644); err != nil {
			return nil, err
		}
		if f.CheckpointDir != "" {
			var torn bool
			if n.sinkBase, torn, err = trimTornTail(n.sink); err != nil {
				n.sink.Close()
				return nil, fmt.Errorf("journal %s: %w", f.Journal, err)
			}
			if torn {
				n.Logger.Warn("journal: truncated a torn final line", "path", f.Journal, "offset", n.sinkBase)
			}
		}
		jopts.Sink = n.sink
	}
	n.Journal = journal.New(jopts)
	cfg.OnEvent = n.Journal.Record

	// The timeline turns end-of-cycle samples and the event stream into
	// series plus flap/drift/convergence analytics, and drives the exporter
	// and workload cycle ticks. Without it the ticks still run, so staleness,
	// coverage and the workload window stay live (no alerts).
	if f.TimelineWindow > 0 {
		tl := timeline.NewCollector(timeline.Options{Window: f.TimelineWindow})
		tl.SetExporterHealth(n.Health)
		tl.SetWorkload(n.Workload)
		cfg.OnEvent = func(ev core.Event) {
			n.Journal.Record(ev)
			tl.ObserveEvent(ev)
		}
		cfg.OnCycle = tl.OnCycle
		n.Timeline = tl
	} else {
		cfg.OnCycle = func(s core.CycleSample) []core.Alert {
			n.Health.Tick(s.At)
			n.Workload.TickCycle(s.Cycle)
			return nil
		}
	}
	n.Config = cfg
	return n, nil
}

// rotateColdJournal moves a non-empty journal to the first free <journal>.N
// when the checkpoint directory holds no checkpoint. Such a journal belongs
// to a run that died before its first checkpoint (or whose checkpoints were
// removed): appending a new run's seq 1, 2, ... to it would let a later
// restore replay the dead run's higher seqs on top of the live checkpoint.
func (n *Node) rotateColdJournal() error {
	path := n.flags.Journal
	warm, err := persist.HasCheckpoint(n.flags.CheckpointDir)
	if err != nil || warm {
		return err
	}
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil || fi.Size() == 0 {
		return err
	}
	for i := 1; ; i++ {
		dst := fmt.Sprintf("%s.%d", path, i)
		if _, err := os.Lstat(dst); !os.IsNotExist(err) {
			if err != nil {
				return err
			}
			continue
		}
		if err := os.Rename(path, dst); err != nil {
			return err
		}
		n.Logger.Warn("journal: cold start, moved the previous run's journal aside", "path", path, "moved_to", dst)
		return nil
	}
}

// trimTornTail truncates f after its last newline and returns f's size
// after the cut, and whether there was a partial line to cut.
func trimTornTail(f *os.File) (size int64, torn bool, err error) {
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, false, err
	}
	buf := make([]byte, 4096)
	cut := int64(0)
	for off := end; off > 0; {
		n := min(off, int64(len(buf)))
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return 0, false, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			cut = off + int64(i) + 1
			break
		}
	}
	if cut == end {
		return end, false, nil
	}
	return cut, true, f.Truncate(cut)
}

// Attach connects the node to the server built from Config: it registers
// every part's metrics on the server's registry, feeds the workload profiler
// the ingested batches and the timeline the ingest-lock contention, opens the
// checkpoint directory and has the server checkpoint into it, and, when
// traced, builds the tracer and the cycle watchdog. Trace only when
// something reads the spans (an HTTP address or a trace file); otherwise the
// hot paths pay a nil check.
func (n *Node) Attach(srv *core.Server, traced bool) error {
	n.srv = srv
	srv.SetWorkload(n.Workload.ObserveBatch)
	reg := srv.Telemetry()
	n.Journal.RegisterMetrics(reg)
	n.Health.RegisterMetrics(reg)
	n.Workload.RegisterMetrics(reg)
	if n.Timeline != nil {
		n.Timeline.RegisterMetrics(reg)
		// The one wall-clock input; it lands only in the timeline store,
		// never in journaled events, so replay stays deterministic.
		n.Timeline.SetContention(srv.LockContention)
	}
	if n.Governor != nil {
		n.Governor.RegisterMetrics(reg)
	}
	if n.flags.CheckpointDir != "" {
		mgr, err := persist.NewManager(persist.Options{Dir: n.flags.CheckpointDir, Registry: reg})
		if err != nil {
			return err
		}
		n.Checkpoints = mgr
		// A restore runs no stage-2 cycle, so the cadence counted from here
		// is the one counted from after Restore.
		srv.SetCheckpoint(mgr, n.flags.CheckpointEvery)
	}
	if !traced {
		return nil
	}
	n.Tracer = trace.New(trace.Options{Registry: reg})
	srv.SetTracer(n.Tracer)
	wd, err := core.NewWatchdog(core.WatchdogConfig{Interval: n.Config.T, Registry: reg})
	if err != nil {
		return err
	}
	n.Tracer.SetOnSpan(wd.ObserveSpan)
	if n.Governor != nil {
		// /readyz fails while the governor is in emergency.
		wd.SetGovernor(n.Governor)
	}
	n.watchdog = wd
	return nil
}

// Restore is the startup half of crash recovery: load the newest valid
// checkpoint into the attached server, then replay the events the previous
// run journaled after it. No checkpoint directory, an empty one, or a
// missing journal file is a cold start, not an error. Call it before the
// first Ingest.
func (n *Node) Restore() error {
	if n.Checkpoints == nil {
		return nil
	}
	path, err := n.Checkpoints.Load(n.srv.RestoreCheckpoint)
	if errors.Is(err, persist.ErrNoCheckpoint) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint restore: %v", err)
	}
	fmt.Fprintf(os.Stderr, "ipd: restored checkpoint %s (seq %d)\n", path, n.srv.Seq())
	if n.flags.Journal == "" {
		return nil
	}
	// The engine journaled its two /0 roots as seq 1 and 2 when it was
	// built. The checkpoint supersedes them; left in the file they would
	// read as a second run.
	if err := n.sink.Truncate(n.sinkBase); err != nil {
		return fmt.Errorf("journal tail: %v", err)
	}
	f, err := os.Open(n.flags.Journal)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal tail: %v", err)
	}
	defer f.Close()
	replayed, err := journal.ReplayTail(bufio.NewReader(f), n.srv.Seq(), n.srv.ApplyEvent)
	if err != nil {
		return fmt.Errorf("journal tail replay: %v", err)
	}
	n.Checkpoints.NoteReplayed(replayed)
	if replayed > 0 {
		fmt.Fprintf(os.Stderr, "ipd: replayed %d journal events (now at seq %d)\n", replayed, n.srv.Seq())
	}
	return nil
}

// Close closes the journal sink and returns the first error the sink hit:
// a failed event write, else a failed close. ipd exits non-zero on
// it, so a run whose decision log is incomplete does not look successful.
// Call it after the engine's last event.
func (n *Node) Close() error {
	if n.sink == nil {
		return nil
	}
	err := n.Journal.SinkErr()
	if cerr := n.sink.Close(); err == nil {
		err = cerr
	}
	n.sink = nil
	if err != nil {
		return fmt.Errorf("journal sink: %w", err)
	}
	return nil
}
