// Command ipd runs the Ingress Point Detection engine on a flow trace
// (binary trace format from flowgen, or CSV) and emits the raw IPD output
// rows (Appendix B format) every output bin.
//
// Usage:
//
//	flowgen -minutes 30 -o trace.ipd
//	ipd -in trace.ipd -factor4 0.01 -bin 5m
//	ipd -in trace.csv -format csv -summary
//	ipd -in trace.ipd -log-level info -debug-http :8080
//	ipd -in trace.ipd -journal decisions.jsonl -explain 10.1.2.3
//	ipd -in trace.ipd -trace-out trace.json
//	ipd -replay decisions.jsonl
//
// -log-level info emits one structured log line per stage-2 cycle;
// -debug-http serves /metrics (Prometheus), /debug/vars (JSON dump),
// /debug/pprof, the /ipd/* introspection API (ranges, range history,
// explain, event tail, trace-span tail), and the watchdog's /healthz and
// /readyz probes while the trace is processed. -journal mirrors every
// range-lifecycle decision to an append-only JSONL file; -replay
// reconstructs the final partition from such a file without rerunning the
// trace. -explain prints the decision provenance for one or more IPs after
// the run. -trace-out writes the span flight recorder as a Chrome
// trace-event JSON file (Perfetto / chrome://tracing) after the run;
// -trace-cap and -trace-sample size the recorder and the 1-in-N per-record
// span sampling.
//
// Crash safety: -checkpoint-dir makes the run periodically write the full
// engine state as a CRC-guarded checkpoint file (every -checkpoint-every
// stage-2 cycles, plus a final one), and on startup restore the newest valid
// checkpoint from that directory; when -journal points at the journal of the
// interrupted run, the events recorded after the restored checkpoint are
// replayed on top, so the partition resumes exactly where the previous
// process died (the journal file is then appended to, not truncated).
// -resync switches the binary trace reader into degraded-mode ingest:
// corrupt byte stretches are scanned past (counted in
// ipd_records_resync_total) instead of aborting the run.
//
// Resource governance: -max-ranges and -mem-budget bound the partition size
// and live heap; either implies -governor, which evaluates the budgets every
// stage-2 cycle and degrades gracefully (defer splits while degraded,
// force-compact low-traffic subtrees in emergency) instead of growing
// without bound under adversarial traffic. Governor state is served at
// /ipd/governor on the debug server, drives /readyz (503 in emergency), and
// lands in the journal as governor events.
//
// Longitudinal observability: a bounded in-process timeline samples the
// engine at the end of every stage-2 cycle (-timeline-every thins the
// cadence, -timeline-window sizes the per-series ring, 0 disables) and runs
// flap/drift/convergence analytics on top; alerts land in the journal as
// alert events and the series are served at /ipd/timeline (JSON or
// format=csv) next to /ipd/alerts on the debug server. -mutexprofile
// enables runtime mutex/block profiling for /debug/pprof/{mutex,block}.
//
// Input data quality: an exporter-health tracker accounts the records each
// router contributes and folds them into a per-router coverage score every
// cycle; classifications made while a router's feed is stale carry a
// degraded-coverage annotation in the journal, -explain, and /ipd/explain.
// -exporter-stale-after sets the silence threshold; -skew-max bounds
// export-clock skew (it only matters for the UDP collectors — trace files
// carry no export clock). The per-feed state is served at /ipd/exporters.
//
// Cluster core: -listen-delta turns this binary into the central node of an
// edge→core deployment. Instead of reading a trace it accepts delta
// sessions from `ipd-collector -ship-to` edges, dedupes on per-edge record
// offsets, merges the streams in deterministic statistical-time order
// (-edges lists the edge IDs the merge gate waits for; -merge-stall trades
// that determinism for liveness when an edge dies), and feeds the merged
// stream through the same engine, binning, and observability pipeline —
// the resulting partition is byte-identical to a single node ingesting the
// concatenated edge traffic. With -checkpoint-dir the core checkpoints the
// engine state together with the per-edge applied offsets and acks edges
// only up to what is durably on disk, so a kill -9 restart loses nothing:
// everything past the restored offsets is still spooled on some edge and
// is redelivered on reconnect. Transport state is served at /ipd/cluster.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"ipd"
	"ipd/internal/cliflags"
	"ipd/internal/flow"
)

func main() {
	var (
		in         = flag.String("in", "-", "input trace file ('-' = stdin)")
		format     = flag.String("format", "binary", "input format: binary or csv")
		factor4    = flag.Float64("factor4", 0.01, "IPv4 n_cidr factor (64 at deployment traffic rates)")
		factor6    = flag.Float64("factor6", 1e-8, "IPv6 n_cidr factor")
		floor      = flag.Float64("floor", 4, "n_cidr floor (min samples to classify any range)")
		q          = flag.Float64("q", 0.95, "quality threshold")
		cidrMax4   = flag.Int("cidrmax4", 28, "IPv4 cidr_max")
		cidrMax6   = flag.Int("cidrmax6", 48, "IPv6 cidr_max")
		tBucket    = flag.Duration("t", time.Minute, "cycle length")
		expiry     = flag.Duration("e", 2*time.Minute, "per-IP state expiration")
		bin        = flag.Duration("bin", 5*time.Minute, "output bin length")
		bytesCnt   = flag.Bool("bytes", false, "count bytes instead of flows")
		summary    = flag.Bool("summary", false, "print only the final summary")
		logLevel   = flag.String("log-level", "warn", "structured log level: debug, info, warn, error (info and below log one line per stage-2 cycle)")
		debugHTTP  = flag.String("debug-http", "", "serve /metrics, /debug/vars, /debug/pprof, and /ipd/* introspection on this address while processing ('' disables)")
		journalOut = flag.String("journal", "", "append every lifecycle decision as JSON lines to this file ('' disables the sink; the in-memory journal always runs)")
		journalCap = flag.Int("journal-cap", 4096, "in-memory decision journal ring capacity")
		explainIPs = flag.String("explain", "", "comma-separated IPs: print decision provenance for each after the run")
		replayIn   = flag.String("replay", "", "replay a JSONL decision journal and print the reconstructed partition (no trace is read)")
		traceCap   = flag.Int("trace-cap", 8192, "flight-recorder ring capacity in spans (tracing runs when -trace-out or -debug-http is set)")
		traceSmpl  = flag.Int("trace-sample", 1024, "sample 1-in-N per-record spans (read, observe); stage-2 cycle phases are always traced")
		traceOut   = flag.String("trace-out", "", "write the flight recorder as Chrome trace-event JSON (load in Perfetto / chrome://tracing) after the run ('' disables)")
		ckptDir    = flag.String("checkpoint-dir", "", "write periodic CRC-guarded state checkpoints to this directory and restore the newest valid one on startup ('' disables)")
		ckptEvery  = flag.Uint64("checkpoint-every", 10, "checkpoint every N stage-2 cycles (with -checkpoint-dir)")
		resync     = flag.Bool("resync", false, "degraded-mode ingest: scan past corrupt bytes in the binary trace instead of aborting (counted in ipd_records_resync_total)")
		govern     = flag.Bool("governor", false, "enable the resource governor (normal/degraded/emergency degradation; implied by -max-ranges or -mem-budget)")
		maxRanges  = flag.Int("max-ranges", 0, "hard cap on active ranges; splits beyond it are deferred (0 = unlimited, implies -governor)")
		memBudget  = flag.Int64("mem-budget", 0, "live-heap budget in bytes for the governor (0 = unlimited, implies -governor)")
		tlWindow   = flag.Int("timeline-window", 512, "per-series timeline ring window in cycles; older points are downsampled into coarser tiers (0 disables the timeline)")
		tlEvery    = flag.Int("timeline-every", 1, "sample the timeline every N stage-2 cycles")
		staleAfter = flag.Duration("exporter-stale-after", 3*time.Minute, "flag a router's feed stale once it has been silent this long (statistical time)")
		skewMax    = flag.Duration("skew-max", 5*time.Minute, "export-clock skew limit for the exporter-health coverage score")
		mutexProf  = flag.Int("mutexprofile", 0, "runtime mutex/block profiling fraction for /debug/pprof/{mutex,block} (0 disables)")
		wlTopK     = flag.Int("workload-topk", 32, "workload profiler heavy-hitter capacity (top-K /24 or /48 aggregates)")
		wlDepth    = flag.Int("workload-maxdepth", 10, "deepest candidate shard depth simulated by the workload profiler (2..10)")
		sketchOn   = flag.Bool("sketch", false, "enable the fixed-memory sketch tier: under governor pressure, unclassified ranges far from the classification threshold degrade per-IP state to a count-min sketch and hydrate back when calm")
		sketchW    = flag.Int("sketch-width", 1024, "count-min sketch width in counters per row (16..1048576; error bound ε = e/width of window mass)")
		sketchD    = flag.Int("sketch-depth", 4, "count-min sketch depth in rows (1..16; bound failure probability δ = e^-depth)")
		sketchM    = flag.Float64("sketch-exact-margin", 0.05, "keep exact per-IP state while a range's top share is within this margin below q (0 uses the engine default)")
		listenDlt  = flag.String("listen-delta", "", "run as the cluster core: accept edge delta sessions on this TCP address instead of reading a trace ('' disables)")
		edgesList  = flag.String("edges", "", "comma-separated edge IDs the deterministic merge waits for (with -listen-delta; '' merges edges as they appear, order then depends on join timing)")
		mergeStall = flag.Duration("merge-stall", 0, "exclude a silent edge from the merge gate after this long (0 = never: the merge stays deterministic but stalls while an edge is down)")
		heartbeat  = flag.Duration("heartbeat", 2*time.Second, "delta transport keepalive interval; peers declare a connection dead after 4x this")
	)
	flag.Parse()
	if err := validateFlags(*ckptEvery, *traceSmpl, *maxRanges, *memBudget, *tlWindow, *tlEvery, *mutexProf, *staleAfter, *skewMax, *wlTopK, *wlDepth); err != nil {
		fmt.Fprintln(os.Stderr, "ipd:", err)
		os.Exit(2)
	}
	if err := cliflags.DeltaListen(*listenDlt, *mergeStall, *heartbeat); err != nil {
		fmt.Fprintln(os.Stderr, "ipd:", err)
		os.Exit(2)
	}
	if err := cliflags.Sketch(*sketchOn, *sketchW, *sketchD, *sketchM); err != nil {
		fmt.Fprintln(os.Stderr, "ipd:", err)
		os.Exit(2)
	}
	if *mutexProf > 0 {
		runtime.SetMutexProfileFraction(*mutexProf)
		runtime.SetBlockProfileRate(*mutexProf)
	}

	if *replayIn != "" {
		if err := replay(*replayIn); err != nil {
			fmt.Fprintln(os.Stderr, "ipd:", err)
			os.Exit(1)
		}
		return
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ipd: bad -log-level %q (want debug, info, warn, or error)\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	cfg := config(*factor4, *factor6, *floor, *q, *cidrMax4, *cidrMax6, *tBucket, *expiry, *bytesCnt)
	cfg.Logger = logger
	if *sketchOn {
		cfg.Sketch = true
		cfg.SketchWidth = *sketchW
		cfg.SketchDepth = *sketchD
		cfg.SketchExactMargin = *sketchM
	}
	tf := traceFlags{capacity: *traceCap, sampleN: *traceSmpl, out: *traceOut}
	cf := ckptFlags{dir: *ckptDir, every: *ckptEvery, resync: *resync}
	gf := govFlags{enabled: *govern, maxRanges: *maxRanges, memBudget: *memBudget}
	tl := timelineFlags{window: *tlWindow, every: *tlEvery}
	ef := exporterFlags{staleAfter: *staleAfter, skewMax: *skewMax}
	wf := workloadFlags{topK: *wlTopK, maxDepth: *wlDepth}
	df := deltaFlags{listen: *listenDlt, edges: splitEdges(*edgesList), mergeStall: *mergeStall, heartbeat: *heartbeat}
	if err := run(*in, *format, cfg, *bin, *summary, *debugHTTP, *journalOut, *journalCap, *explainIPs, tf, cf, gf, tl, ef, wf, df); err != nil {
		fmt.Fprintln(os.Stderr, "ipd:", err)
		os.Exit(1)
	}
}

// validateFlags chains the shared rule sets from internal/cliflags; the
// first violated rule wins.
func validateFlags(ckptEvery uint64, traceSample, maxRanges int, memBudget int64, tlWindow, tlEvery, mutexProf int, staleAfter, skewMax time.Duration, wlTopK, wlMaxDepth int) error {
	if err := cliflags.Engine(ckptEvery, traceSample, maxRanges, memBudget, tlWindow, tlEvery, mutexProf); err != nil {
		return err
	}
	if err := cliflags.ExporterHealth(staleAfter, skewMax); err != nil {
		return err
	}
	return cliflags.Workload(wlTopK, wlMaxDepth)
}

// workloadFlags carries the workload-profiler flag values into run.
type workloadFlags struct {
	topK     int // heavy-hitter table capacity
	maxDepth int // deepest candidate shard depth simulated
}

// deltaFlags carries the cluster-core flag values into run.
type deltaFlags struct {
	listen     string   // TCP listen address; "" = normal trace mode
	edges      []string // expected edge IDs for the deterministic merge
	mergeStall time.Duration
	heartbeat  time.Duration
}

// splitEdges parses the comma-separated -edges list, dropping empty items.
func splitEdges(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func config(f4, f6, floor, q float64, cm4, cm6 int, t, e time.Duration, bytesCnt bool) ipd.Config {
	cfg := ipd.DefaultConfig()
	cfg.NCidrFactor4 = f4
	cfg.NCidrFactor6 = f6
	cfg.NCidrFloor = floor
	cfg.Q = q
	cfg.CIDRMax4 = cm4
	cfg.CIDRMax6 = cm6
	cfg.T = t
	cfg.E = e
	cfg.CountBytes = bytesCnt
	return cfg
}

// replay implements -replay: rebuild the partition from a decision log by
// folding it through a fresh engine (OnEvent nil, so it starts at seq 0).
func replay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	eng, err := ipd.NewEngine(ipd.DefaultConfig())
	if err != nil {
		return err
	}
	if _, err := ipd.ReplayJournalTail(bufio.NewReader(f), 0, eng.ApplyEvent); err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	ranges := eng.Snapshot()
	for _, ri := range ranges {
		if ri.Classified {
			fmt.Fprintf(out, "%s\t%s\n", ri.Prefix, ri.Ingress)
		} else {
			fmt.Fprintf(out, "%s\tunclassified\n", ri.Prefix)
		}
	}
	fmt.Fprintf(os.Stderr, "ipd: replayed %d events into %d active ranges\n", eng.Seq(), len(ranges))
	return nil
}

// lockedEngine adapts the single-threaded Engine to the concurrent
// introspect.Source contract: the run loop and the HTTP handlers both go
// through mu. The trace loop holds mu per record batch boundary (feed/
// advance), which is uncontended unless a debug request is in flight.
type lockedEngine struct {
	mu  sync.Mutex
	eng *ipd.Engine
}

func (l *lockedEngine) Snapshot() []ipd.RangeInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eng.Snapshot()
}

func (l *lockedEngine) Range(addr netip.Addr) (ipd.RangeInfo, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eng.Range(addr)
}

func (l *lockedEngine) Explain(addr netip.Addr) (ipd.Explanation, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eng.Explain(addr)
}

// traceFlags carries the -trace-* flag values into run.
type traceFlags struct {
	capacity int
	sampleN  int
	out      string
}

// ckptFlags carries the crash-safety flag values into run.
type ckptFlags struct {
	dir    string
	every  uint64
	resync bool
}

// govFlags carries the resource-governor flag values into run.
type govFlags struct {
	enabled   bool
	maxRanges int
	memBudget int64
}

// active reports whether a governor should be built (explicitly enabled or
// implied by a budget flag).
func (g govFlags) active() bool { return g.enabled || g.maxRanges > 0 || g.memBudget > 0 }

// timelineFlags carries the longitudinal-observability flag values into run.
type timelineFlags struct {
	window int // per-series ring window in cycles; 0 disables the timeline
	every  int // sample every N stage-2 cycles
}

// exporterFlags carries the exporter-health flag values into run.
type exporterFlags struct {
	staleAfter time.Duration
	skewMax    time.Duration
}

// restoreState implements the startup half of crash recovery: load the
// newest valid checkpoint from mgr into eng, then replay the tail of the
// previous run's journal (events newer than the checkpoint) on top. A cold
// start (no checkpoint) or a missing journal file is not an error.
func restoreState(eng *ipd.Engine, mgr *ipd.CheckpointManager, journalPath string) error {
	path, err := mgr.Load(eng.UnmarshalState)
	if err != nil {
		if errors.Is(err, ipd.ErrNoCheckpoint) {
			return nil // cold start
		}
		return fmt.Errorf("checkpoint restore: %v", err)
	}
	fmt.Fprintf(os.Stderr, "ipd: restored checkpoint %s (seq %d)\n", path, eng.Seq())
	if journalPath == "" {
		return nil
	}
	f, err := os.Open(journalPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("journal tail: %v", err)
	}
	defer f.Close()
	n, err := ipd.ReplayJournalTail(bufio.NewReader(f), eng.Seq(), eng.ApplyEvent)
	if err != nil {
		return fmt.Errorf("journal tail replay: %v", err)
	}
	mgr.NoteReplayed(n)
	if n > 0 {
		fmt.Fprintf(os.Stderr, "ipd: replayed %d journal events (now at seq %d)\n", n, eng.Seq())
	}
	return nil
}

// restoreCluster is the core-mode half of crash recovery: load the newest
// valid cluster checkpoint (engine state + per-edge applied offsets) into
// eng and return the offsets for DeltaReceiver.SetApplied. The journal tail
// is NOT replayed here — in cluster mode the transport itself replays: with
// durable acks, every record past the restored offsets is still in some
// edge's spool, and resumed sessions redeliver exactly those.
func restoreCluster(eng *ipd.Engine, mgr *ipd.CheckpointManager) (map[string]uint64, error) {
	var applied map[string]uint64
	path, err := mgr.Load(func(data []byte) error {
		state, app, err := ipd.DecodeClusterCheckpoint(data)
		if err != nil {
			return err
		}
		if err := eng.UnmarshalState(state); err != nil {
			return err
		}
		applied = app
		return nil
	})
	if err != nil {
		if errors.Is(err, ipd.ErrNoCheckpoint) {
			return nil, nil // cold start
		}
		return nil, fmt.Errorf("cluster checkpoint restore: %v", err)
	}
	fmt.Fprintf(os.Stderr, "ipd: restored cluster checkpoint %s (seq %d, %d edges)\n", path, eng.Seq(), len(applied))
	return applied, nil
}

// serveDebug mounts the telemetry, profiling, introspection, and health
// surface while a trace run is in flight (best-effort: the process exits
// with the run). wd may be nil (no watchdog → /healthz and /readyz are not
// mounted).
func serveDebug(addr string, reg *ipd.TelemetryRegistry, introspect http.Handler, wd *ipd.Watchdog) {
	ipd.RegisterProcessMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", reg.JSONHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/ipd/", introspect)
	if wd != nil {
		mux.Handle("/healthz", wd.HealthzHandler())
		mux.Handle("/readyz", wd.ReadyzHandler())
	}
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "ipd: debug http:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "ipd: debug endpoints on http://%s\n", addr)
}

func run(in, format string, cfg ipd.Config, bin time.Duration, summary bool, debugHTTP, journalOut string, journalCap int, explainIPs string, tf traceFlags, cf ckptFlags, gf govFlags, tl timelineFlags, ef exporterFlags, wf workloadFlags, df deltaFlags) error {
	var r io.Reader = os.Stdin
	if in != "-" && df.listen == "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	// The decision journal records every lifecycle event; -journal adds the
	// durable JSONL sink on top of the in-memory ring. With -checkpoint-dir
	// the file is opened in append mode — its existing tail is the replay
	// source for crash recovery, so truncating it would destroy exactly the
	// events a restore needs.
	jopts := ipd.JournalOptions{Capacity: journalCap}
	if journalOut != "" {
		var f *os.File
		var err error
		if cf.dir != "" {
			f, err = os.OpenFile(journalOut, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		} else {
			f, err = os.Create(journalOut)
		}
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		jopts.Sink = w
	}

	j := ipd.NewJournal(jopts)
	cfg.OnEvent = j.Record

	// The exporter-health tracker counts the records each router contributes
	// (the trace path carries no sequence numbers or export clocks, so only
	// activity/staleness and the derived coverage apply) and the engine
	// annotates classifications made over a stale feed.
	health := ipd.NewExporterHealth(ipd.ExporterHealthOptions{
		StaleAfter: ef.staleAfter,
		SkewMax:    ef.skewMax,
	})
	cfg.Coverage = health.IngressCoverage

	// The workload profiler samples the record stream for heavy-hitter /24
	// (v6 /48) aggregates, simulated shard balance, and batch locality
	// (served at /ipd/workload with -debug-http). On an offline trace the
	// ingest-latency histogram measures file age rather than pipeline lag;
	// the aggregate and shard views are what matter here.
	wl := ipd.NewWorkloadProfiler(ipd.WorkloadOptions{
		TopK:     wf.topK,
		MaxDepth: wf.maxDepth,
		Skew:     health.RouterSkew,
	})

	// The timeline collector turns the end-of-cycle samples and the journal
	// event stream into longitudinal series plus flap/drift/convergence
	// analytics (served at /ipd/timeline and /ipd/alerts with -debug-http).
	// It also drives the exporter-health cycle ticks and exporter alerts.
	var tlColl *ipd.TimelineCollector
	if tl.window > 0 {
		tlColl = ipd.NewTimelineCollector(ipd.TimelineOptions{Window: tl.window})
		tlColl.SetExporterHealth(health)
		tlColl.SetWorkload(wl)
		cfg.OnEvent = func(ev ipd.Event) {
			j.Record(ev)
			tlColl.ObserveEvent(ev)
		}
		cfg.OnCycle = tlColl.OnCycle
		cfg.OnCycleEvery = tl.every
	} else {
		// No timeline: still tick the tracker and profiler on statistical
		// time so staleness, coverage, and the workload window stay live
		// (no alerts without the analyzer).
		cfg.OnCycle = func(s ipd.CycleSample) []ipd.Alert {
			health.Tick(s.At)
			wl.TickCycle(s.Cycle, s.At)
			return nil
		}
	}

	// The governor is built before the engine (it is part of the engine
	// config) but registers its metrics after, on the engine's registry.
	var gov *ipd.Governor
	if gf.active() {
		var err error
		gov, err = ipd.NewGovernor(ipd.GovernorConfig{
			MaxRanges:  gf.maxRanges,
			MemBudget:  uint64(gf.memBudget),
			SketchTier: cfg.Sketch,
		})
		if err != nil {
			return err
		}
		cfg.Governor = gov
		cfg.MaxRanges = gf.maxRanges
	}

	eng, err := ipd.NewEngine(cfg)
	if err != nil {
		return err
	}
	j.RegisterMetrics(eng.Telemetry())
	if gov != nil {
		gov.RegisterMetrics(eng.Telemetry())
	}
	if tlColl != nil {
		tlColl.RegisterMetrics(eng.Telemetry())
	}
	health.RegisterMetrics(eng.Telemetry())
	wl.RegisterMetrics(eng.Telemetry())
	flowMetrics := ipd.NewFlowMetrics(eng.Telemetry())
	locked := &lockedEngine{eng: eng}

	// Crash recovery: restore the newest valid checkpoint and replay the
	// journal tail, then checkpoint periodically (and finally) below. A
	// cluster core restores the envelope variant instead: engine state plus
	// the per-edge applied offsets that seed the receiver's resume handshake.
	var mgr *ipd.CheckpointManager
	var restoredApplied map[string]uint64
	if cf.dir != "" {
		mgr, err = ipd.NewCheckpointManager(ipd.CheckpointOptions{Dir: cf.dir, Registry: eng.Telemetry()})
		if err != nil {
			return err
		}
		if df.listen != "" {
			restoredApplied, err = restoreCluster(eng, mgr)
			if err != nil {
				return err
			}
		} else if err := restoreState(eng, mgr, journalOut); err != nil {
			return err
		}
	}
	lastCkpt := eng.Cycles()
	maybeCheckpoint := func(force bool) {
		if mgr == nil {
			return
		}
		// Cheap gate: an atomic cycle-counter read per record.
		cycles := eng.Cycles()
		if !force && cycles-lastCkpt < cf.every {
			return
		}
		lastCkpt = cycles
		locked.mu.Lock()
		data := eng.MarshalState()
		seq := eng.Seq()
		locked.mu.Unlock()
		// Failures are counted (ipd_checkpoint_errors_total) and logged; the
		// run continues with the previous checkpoint intact.
		if err := mgr.Save(seq, data); err != nil {
			fmt.Fprintln(os.Stderr, "ipd: checkpoint:", err)
		}
	}

	// Cluster core (-listen-delta): records arrive from edge senders over
	// the resilient delta transport instead of a trace file. The receiver is
	// built here (before the debug server mounts) so /ipd/cluster and the
	// timeline delta.* series attach race-free; its Apply callback is bound
	// below, after the record-handling closure exists — Serve starts later,
	// so the late binding is never observed.
	var recv *ipd.DeltaReceiver
	var applyBatch func([]ipd.Record, map[string]uint64) error
	if df.listen != "" {
		recv, err = ipd.NewDeltaReceiver(ipd.DeltaReceiverConfig{
			Edges:       df.edges,
			Heartbeat:   df.heartbeat,
			MergeStall:  df.mergeStall,
			DurableAcks: mgr != nil,
			Apply: func(recs []ipd.Record, app map[string]uint64) error {
				return applyBatch(recs, app)
			},
			Logf: func(format string, args ...any) {
				cfg.Logger.Info("delta: " + fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			return err
		}
		recv.SetApplied(restoredApplied)
		recv.RegisterMetrics(eng.Telemetry())
		if tlColl != nil {
			tlColl.SetCluster(func() ipd.TimelineClusterCounters {
				st := recv.Stats()
				cc := ipd.TimelineClusterCounters{
					Applied:  st.Applied,
					Sessions: st.Sessions,
				}
				for _, e := range st.Edges {
					cc.Duplicates += e.Duplicates
					cc.Gaps += e.Gaps
					cc.Pending += e.Pending
				}
				return cc
			})
		}
	}

	// Tracing runs whenever anything can consume it: a Chrome export file or
	// the debug server's /ipd/traces tail. Otherwise the tracer stays nil and
	// the hot paths pay only a nil check. The tracer is built after the
	// engine so its phase histograms land in the engine's registry.
	var tracer *ipd.Tracer
	var wd *ipd.Watchdog
	if tf.out != "" || debugHTTP != "" {
		tracer = ipd.NewTracer(ipd.TracerOptions{
			Capacity: tf.capacity,
			SampleN:  tf.sampleN,
			Registry: eng.Telemetry(),
		})
		eng.SetTracer(tracer)
		wd, err = ipd.NewWatchdog(ipd.WatchdogConfig{
			Interval: cfg.T,
			Registry: eng.Telemetry(),
		})
		if err != nil {
			return err
		}
		tracer.SetOnSpan(wd.ObserveSpan)
		if gov != nil {
			// /readyz flips to 503 while the governor is in emergency.
			wd.SetGovernor(gov)
		}
	}
	if debugHTTP != "" {
		ih := ipd.NewIntrospectHandler(locked, j)
		if tracer != nil {
			ih.SetTraces(tracer.Recorder())
		}
		if gov != nil {
			ih.SetGovernor(gov)
		}
		if tlColl != nil {
			ih.SetTimeline(tlColl)
		}
		ih.SetExporterHealth(health)
		ih.SetWorkload(wl)
		if recv != nil {
			ih.SetCluster(func() ipd.ClusterStatus {
				st := recv.Stats()
				return ipd.ClusterStatus{Role: "core", Receiver: &st}
			})
		}
		if cfg.Sketch {
			ih.SetSketch(func() ipd.SketchStatus {
				locked.mu.Lock()
				defer locked.mu.Unlock()
				return eng.SketchStatus()
			})
		}
		serveDebug(debugHTTP, eng.Telemetry(), ih, wd)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	var nextBin time.Time
	var implausible int
	emit := func(at time.Time) error {
		if summary {
			return nil
		}
		return ipd.WriteOutputSnapshot(out, at, eng.Mapped(), nil)
	}
	// maxJump bounds how far a single record may advance the clock. A corrupt
	// record that mis-decodes into a timestamp centuries ahead would otherwise
	// drive the bin-advance loop (and the engine's cycle loop) effectively
	// forever. Week-long gaps in a legitimate trace still advance cheaply.
	const maxJump = 7 * 24 * time.Hour
	handle := func(rec ipd.Record) error {
		locked.mu.Lock()
		defer locked.mu.Unlock()
		if nextBin.IsZero() {
			nextBin = rec.Ts.Truncate(bin).Add(bin)
		}
		if rec.Ts.After(nextBin.Add(maxJump)) {
			if !cf.resync {
				return fmt.Errorf("record timestamp %v jumps more than %v past the current bin %v (corrupt input? try -resync)",
					rec.Ts, maxJump, nextBin)
			}
			implausible++
			return nil
		}
		for !rec.Ts.Before(nextBin) {
			eng.AdvanceTo(nextBin)
			if err := emit(nextBin); err != nil {
				return err
			}
			nextBin = nextBin.Add(bin)
		}
		health.ObserveRecord(rec.In.Router)
		wl.ObserveRecord(rec)
		eng.Feed(rec)
		return nil
	}

	// saveCluster writes the cluster checkpoint envelope: engine state plus
	// the per-edge applied offsets of the batch just applied. MarkDurable
	// follows a successful save only — an ack licenses the senders to
	// discard, so a failed save must leave the acked boundary (and hence
	// every unpersisted record, still in some spool) where it was.
	saveCluster := func(app map[string]uint64) error {
		locked.mu.Lock()
		data := eng.MarshalState()
		seq := eng.Seq()
		locked.mu.Unlock()
		env, err := ipd.EncodeClusterCheckpoint(data, app)
		if err != nil {
			return err
		}
		return mgr.Save(seq, env)
	}

	var count int
	if df.listen != "" {
		lastClusterCkpt := eng.Cycles()
		applyBatch = func(recs []ipd.Record, app map[string]uint64) error {
			for _, rec := range recs {
				if err := handle(rec); err != nil {
					return err
				}
				count++
			}
			if mgr == nil {
				return nil
			}
			if cycles := eng.Cycles(); cycles-lastClusterCkpt >= cf.every {
				lastClusterCkpt = cycles
				if err := saveCluster(app); err != nil {
					fmt.Fprintln(os.Stderr, "ipd: cluster checkpoint:", err)
				} else {
					recv.MarkDurable(app)
				}
			}
			return nil
		}

		ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stopSig()
		ln, err := net.Listen("tcp", df.listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ipd: core accepting deltas on tcp://%s (edges %v)\n", ln.Addr(), df.edges)
		serveErr := make(chan error, 1)
		go func() { serveErr <- recv.Serve(ln) }()
		var srvErr error
		select {
		case <-ctx.Done():
			_ = recv.Close()
			srvErr = <-serveErr
		case <-recv.Done():
			// Every expected edge sent Fin and its stream is fully applied.
			// Persist the final checkpoint and let the last acks flush
			// before tearing the sessions down — the edges' shutdown Drain
			// is waiting on exactly those acks to empty their spools.
			if mgr != nil {
				if err := saveCluster(recv.Applied()); err != nil {
					fmt.Fprintln(os.Stderr, "ipd: cluster checkpoint:", err)
				} else {
					recv.MarkDurable(recv.Applied())
				}
			}
			time.Sleep(df.heartbeat / 2)
			_ = recv.Close()
			srvErr = <-serveErr
		case srvErr = <-serveErr:
		}
		if srvErr != nil && recv.Err() != nil {
			return fmt.Errorf("delta receiver: %v", recv.Err())
		}
	} else {
		switch format {
		case "binary":
			tr := ipd.NewTraceReader(r)
			tr.SetMetrics(flowMetrics)
			tr.SetTracer(tracer)
			tr.SetResync(cf.resync)
			for {
				rec, err := tr.Read()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				if err := handle(rec); err != nil {
					return err
				}
				count++
				maybeCheckpoint(false)
			}
		case "csv":
			sc := bufio.NewScanner(r)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if line == "" || strings.HasPrefix(line, "#") {
					continue
				}
				rec, err := flow.ParseCSV(line)
				if err != nil {
					return err
				}
				if err := handle(rec); err != nil {
					return err
				}
				count++
				maybeCheckpoint(false)
			}
			if err := sc.Err(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown format %q (want binary or csv)", format)
		}
	}

	locked.mu.Lock()
	eng.ForceCycle()
	err = emit(eng.Now())
	locked.mu.Unlock()
	if err != nil {
		return err
	}
	if recv != nil {
		if mgr != nil {
			if err := saveCluster(recv.Applied()); err != nil {
				fmt.Fprintln(os.Stderr, "ipd: cluster checkpoint:", err)
			}
		}
	} else {
		maybeCheckpoint(true)
	}
	if explainIPs != "" {
		if err := explain(os.Stderr, locked, j, explainIPs); err != nil {
			return err
		}
	}
	if implausible > 0 {
		fmt.Fprintf(os.Stderr, "ipd: skipped %d records with implausible timestamps (degraded input)\n", implausible)
	}
	st := eng.Stats()
	fmt.Fprintf(os.Stderr,
		"ipd: %d records, %d cycles, %d classifications (%d invalidated, %d expired), %d splits, %d joins, %d drops, %d active ranges, %d mapped, %d journal events\n",
		count, st.Cycles, st.Classifications, st.Invalidations, st.Expirations,
		st.Splits, st.Joins, st.Drops, eng.RangeCount(), len(eng.Mapped()), j.Recorded())
	if err := j.SinkErr(); err != nil {
		return fmt.Errorf("journal sink: %v", err)
	}
	if tf.out != "" && tracer != nil {
		if err := writeTrace(tf.out, tracer); err != nil {
			return fmt.Errorf("trace export: %v", err)
		}
	}
	return nil
}

// writeTrace dumps the flight recorder to path in Chrome trace-event format.
func writeTrace(path string, tracer *ipd.Tracer) error {
	spans := tracer.Recorder().Tail(0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := ipd.WriteChromeTrace(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ipd: wrote %d trace spans to %s\n", len(spans), path)
	return nil
}

// explain prints the decision provenance for a comma-separated IP list.
func explain(w io.Writer, src ipd.IntrospectSource, j *ipd.Journal, ips string) error {
	for _, s := range strings.Split(ips, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		addr, err := netip.ParseAddr(s)
		if err != nil {
			return fmt.Errorf("-explain: bad ip %q: %v", s, err)
		}
		ex, ok := src.Explain(addr)
		if !ok {
			fmt.Fprintf(w, "ipd: explain %s: no active range\n", addr)
			continue
		}
		fmt.Fprintf(w, "ipd: explain %s\n", addr)
		parts := make([]string, len(ex.Path))
		for i, p := range ex.Path {
			parts[i] = p.String()
		}
		fmt.Fprintf(w, "  path:    %s\n", strings.Join(parts, " > "))
		fmt.Fprintf(w, "  verdict: %s\n", ex.VerdictString())
		if ex.Coverage != nil {
			fmt.Fprintf(w, "  caveat:  %s\n", ex.Coverage)
		}
		if ex.Sketch != nil {
			fmt.Fprintf(w, "  caveat:  %s\n", ex.Sketch)
		}
		for _, sh := range ex.Shares {
			fmt.Fprintf(w, "  vote:    %s share %.3f (%.0f samples)\n", sh.Ingress, sh.Share, sh.Count)
		}
		for _, ev := range j.History(ex.Range.Prefix.String()) {
			fmt.Fprintf(w, "  event:   seq %d cycle %d %s %s (%s)\n",
				ev.Seq, ev.Cycle, ev.Kind, ev.Prefix, ev.Reason)
		}
	}
	return nil
}
