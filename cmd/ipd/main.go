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
// trace-event JSON file (Perfetto / chrome://tracing) after the run; the
// recorder keeps the last 8192 spans and samples per-record spans 1 in 1024.
//
// Crash safety: -checkpoint-dir makes the run periodically write the full
// engine state as a CRC-guarded checkpoint file (every -checkpoint-every
// stage-2 cycles, plus a final one), and on startup restore the newest valid
// checkpoint from that directory; when -journal points at the journal of the
// interrupted run, the events recorded after the restored checkpoint are
// replayed on top, so the partition resumes exactly where the previous
// process died (the journal file is then appended to, not truncated). A
// cold start (no checkpoint in the directory) moves an existing journal to
// the first free <journal>.N instead, and a journal whose seqs do not
// increase line by line is refused rather than replayed.
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
// engine at the end of every stage-2 cycle (-timeline-window sizes the
// per-series ring, 0 disables) and runs
// flap/drift/convergence analytics on top; alerts land in the journal as
// alert events and the series are served at /ipd/timeline (JSON or
// format=csv) next to /ipd/alerts on the debug server. -mutexprofile
// enables runtime mutex/block profiling for /debug/pprof/{mutex,block}.
//
// Input data quality: an exporter-health tracker accounts the records each
// router contributes and folds them into a per-router coverage score every
// cycle; classifications made while a router's feed is stale carry a
// degraded-coverage annotation in the journal, -explain, and /ipd/explain.
// A feed silent for 3 minutes of statistical time is stale; export-clock
// skew beyond 5 minutes degrades it (only the UDP collectors see an export
// clock; trace files carry none). The per-feed state is served at
// /ipd/exporters.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
	"time"

	"ipd"
	"ipd/internal/flow"
	"ipd/internal/node"
	"ipd/internal/trace"
)

// options are the ipd flags; the ones ipd-collector shares are in node, and
// the engine parameters parse straight into cfg.
type options struct {
	node *node.Flags
	cfg  ipd.Config

	in, format, replay, explain string
	debugHTTP, traceOut         string
	bin                         time.Duration
	summary, resync             bool
}

func newOptions(fs *flag.FlagSet) *options {
	o := &options{cfg: ipd.DefaultConfig()}
	o.node = node.RegisterFlags(fs, &o.cfg)
	fs.StringVar(&o.in, "in", "-", "input trace file ('-' = stdin)")
	fs.StringVar(&o.format, "format", "binary", "input format: binary or csv")
	fs.Float64Var(&o.cfg.NCidrFactor6, "factor6", 1e-8, "IPv6 n_cidr factor")
	fs.IntVar(&o.cfg.CIDRMax4, "cidrmax4", 28, "IPv4 cidr_max")
	fs.IntVar(&o.cfg.CIDRMax6, "cidrmax6", 48, "IPv6 cidr_max")
	fs.DurationVar(&o.cfg.T, "t", time.Minute, "cycle length")
	fs.DurationVar(&o.cfg.E, "e", 2*time.Minute, "per-IP state expiration")
	fs.DurationVar(&o.bin, "bin", 5*time.Minute, "output bin length")
	fs.BoolVar(&o.cfg.CountBytes, "bytes", false, "count bytes instead of flows")
	fs.BoolVar(&o.summary, "summary", false, "print only the final summary")
	fs.StringVar(&o.debugHTTP, "debug-http", "", "serve /metrics, /debug/vars, /debug/pprof, and /ipd/* introspection on this address while processing ('' disables)")
	fs.StringVar(&o.explain, "explain", "", "comma-separated IPs: print decision provenance for each after the run")
	fs.StringVar(&o.replay, "replay", "", "replay a JSONL decision journal and print the reconstructed partition (no trace is read)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the flight recorder as Chrome trace-event JSON (load in Perfetto / chrome://tracing) after the run ('' disables)")
	fs.BoolVar(&o.resync, "resync", false, "degraded-mode ingest: scan past corrupt bytes in the binary trace instead of aborting (counted in ipd_records_resync_total)")
	return o
}

func main() {
	o := newOptions(flag.CommandLine)
	flag.Parse()
	err := o.node.Validate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipd:", err)
		os.Exit(2)
	}
	if o.replay != "" {
		err = replay(o.replay)
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipd:", err)
		os.Exit(1)
	}
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

func run(o *options) error {
	var r io.Reader = os.Stdin
	if o.in != "-" {
		f, err := os.Open(o.in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}

	n, err := node.New("ipd", o.node, o.cfg, node.GovernorInputs{})
	if err != nil {
		return err
	}
	defer n.Close()
	eng, err := ipd.NewEngine(n.Config)
	if err != nil {
		return err
	}
	locked := &node.Locked{Engine: eng}
	if err := n.Attach(locked, o.debugHTTP != "" || o.traceOut != ""); err != nil {
		return err
	}
	flowMetrics := ipd.NewFlowMetrics(eng.Telemetry())

	// Crash recovery: restore the newest valid checkpoint and replay the
	// journal tail, then checkpoint periodically (and finally) below.
	if err := n.Restore(); err != nil {
		return err
	}
	mgr := n.Checkpoints
	lastCkpt := eng.Cycles()
	maybeCheckpoint := func(force bool) {
		if mgr == nil {
			return
		}
		// Cheap gate: an atomic cycle-counter read per record.
		cycles := eng.Cycles()
		if !force && cycles-lastCkpt < o.node.CheckpointEvery {
			return
		}
		lastCkpt = cycles
		locked.Mu.Lock()
		data := eng.MarshalState()
		seq := eng.Seq()
		locked.Mu.Unlock()
		// Failures are counted (ipd_checkpoint_errors_total) and logged; the
		// run continues with the previous checkpoint intact.
		if err := mgr.Save(seq, data); err != nil {
			fmt.Fprintln(os.Stderr, "ipd: checkpoint:", err)
		}
	}

	if o.debugHTTP != "" {
		// Best-effort: the server lives as long as the run.
		mux := n.Handler()
		go func() {
			if err := node.ListenAndServe(context.Background(), o.debugHTTP, mux); err != nil {
				fmt.Fprintln(os.Stderr, "ipd: debug http:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "ipd: debug endpoints on http://%s\n", o.debugHTTP)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	var nextBin time.Time
	var implausible int
	emit := func(at time.Time) error {
		if o.summary {
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
		locked.Mu.Lock()
		defer locked.Mu.Unlock()
		if nextBin.IsZero() {
			nextBin = rec.Ts.Truncate(o.bin).Add(o.bin)
		}
		if rec.Ts.After(nextBin.Add(maxJump)) {
			if !o.resync {
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
			nextBin = nextBin.Add(o.bin)
		}
		n.Health.ObserveRecord(rec.In.Router)
		n.Workload.ObserveRecord(rec)
		eng.Feed(rec)
		return nil
	}

	var count int
	switch o.format {
	case "binary":
		tr := ipd.NewTraceReader(r)
		tr.SetMetrics(flowMetrics)
		tr.SetTracer(n.Tracer)
		tr.SetResync(o.resync)
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
		return fmt.Errorf("unknown format %q (want binary or csv)", o.format)
	}

	locked.Mu.Lock()
	eng.ForceCycle()
	err = emit(eng.Now())
	locked.Mu.Unlock()
	if err != nil {
		return err
	}
	maybeCheckpoint(true)
	if o.explain != "" {
		if err := explain(os.Stderr, locked, n.Journal, o.explain); err != nil {
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
		st.Splits, st.Joins, st.Drops, eng.RangeCount(), len(eng.Mapped()), n.Journal.Recorded())
	if err := n.Close(); err != nil {
		return err
	}
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, n.Tracer.Recorder()); err != nil {
			return fmt.Errorf("trace export: %v", err)
		}
	}
	return nil
}

// writeTrace dumps the flight recorder to path in Chrome trace-event format.
func writeTrace(path string, rec *trace.Recorder) error {
	spans := rec.Tail(0)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := trace.WriteChrome(w, spans); err != nil {
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
func explain(w io.Writer, src *node.Locked, j *ipd.Journal, ips string) error {
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
