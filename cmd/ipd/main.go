// Command ipd runs the Ingress Point Detection engine on a flow trace
// (binary trace format from flowgen, or CSV) and emits the raw IPD output
// rows (Appendix B format) every output bin.
//
// The records take ipd-collector's path: the statistical-time binner (§3.1)
// and the engine in one core.Server, so a trace gets the verdicts its
// records would get over the wire. Stage 2 runs every -t as statistical
// time advances, and the rows stamped at a -bin boundary B are the ranges
// the last cycle at or before B left; a final set follows the final cycle.
// The last stderr line counts the records the binner accepted and dropped.
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
// server state, the partition and the binner's open buckets, as a
// CRC-guarded checkpoint file (every -checkpoint-every stage-2 cycles, plus
// a final one), and on startup restore the newest valid checkpoint from that
// directory (an engine-only one from an older run restores with no open
// buckets); when -journal points at the journal of the
// interrupted run, the events recorded after the restored checkpoint are
// replayed on top, so the partition resumes exactly where the previous
// process died (the journal file is then appended to, not truncated). A
// cold start (no checkpoint in the directory) moves an existing journal to
// the first free <journal>.N instead, and a journal whose seqs do not
// increase line by line is refused rather than replayed.
// -resync switches the binary trace reader into degraded-mode ingest:
// corrupt byte stretches are scanned past (counted in
// ipd_records_resync_total) instead of aborting the run. It also lets the
// run go on past records the binner drops as future, more than 5 minutes
// ahead of statistical time (a timestamp jump, or a gap in which every feed
// fell silent; the records after such a gap are all dropped); without it
// the first such drop fails the run.
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
	srv, err := ipd.NewServer(n.Config, ipd.DefaultStatTimeConfig())
	if err != nil {
		return err
	}
	if err := n.Attach(srv, o.debugHTTP != "" || o.traceOut != ""); err != nil {
		return err
	}
	// Crash recovery: restore the newest valid checkpoint and replay the
	// journal tail; the server then checkpoints as it goes and in Finish.
	if err := n.Restore(); err != nil {
		return err
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

	// Appendix-B rows: as a cycle starts, every -bin boundary B before it is
	// written, so B's rows are the ranges the last cycle at or before B left.
	// The first boundary is the first at or after the first cycle. The hook
	// runs inside Ingest and Finish; werr is checked after them.
	var nextBin, last time.Time
	var werr error
	if !o.summary {
		srv.SetCycleHook(func(at time.Time, mapped func() []ipd.RangeInfo) {
			if nextBin.IsZero() {
				nextBin = at.Truncate(o.bin)
				if nextBin.Before(at) {
					nextBin = nextBin.Add(o.bin)
				}
			}
			for ; nextBin.Before(at) && werr == nil; nextBin = nextBin.Add(o.bin) {
				werr = ipd.WriteOutputSnapshot(out, nextBin, mapped(), nil)
			}
			last = at
		})
	}

	// Records go to the server in batches of the collector's drain size.
	// The binner drops a record more than MaxSkew ahead of statistical time
	// as future: a timestamp jump, or a gap in which every feed fell silent,
	// after which every later record is dropped too. Without -resync that
	// ends the run instead of losing the rest of the trace silently.
	batch := make([]ipd.Record, 0, 512)
	var count int
	ingest := func() error {
		srv.Ingest(batch)
		batch = batch[:0]
		if werr != nil {
			return werr
		}
		if _, bin := srv.Stats(); bin.DroppedFuture > 0 && !o.resync {
			return fmt.Errorf("by record %d, %d records ran more than %v ahead of statistical time (a timestamp jump, or a gap in which every feed fell silent); -resync drops them and goes on",
				count, bin.DroppedFuture, ipd.DefaultStatTimeConfig().MaxSkew)
		}
		return nil
	}
	add := func(rec ipd.Record) error {
		n.Health.ObserveRecord(rec.In.Router)
		count++
		if batch = append(batch, rec); len(batch) == cap(batch) {
			return ingest()
		}
		return nil
	}
	switch o.format {
	case "binary":
		tr := ipd.NewTraceReader(r)
		tr.SetMetrics(ipd.NewFlowMetrics(srv.Telemetry()))
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
			if err := add(rec); err != nil {
				return err
			}
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
			if err := add(rec); err != nil {
				return err
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q (want binary or csv)", o.format)
	}
	if err := ingest(); err != nil {
		return err
	}
	srv.Finish()
	if werr == nil && !o.summary {
		werr = ipd.WriteOutputSnapshot(out, last, srv.Mapped(), nil)
	}
	if werr != nil {
		return werr
	}
	if o.explain != "" {
		if err := explain(os.Stderr, srv, n.Journal, o.explain); err != nil {
			return err
		}
	}
	st, bin := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"ipd: %d records, %d cycles, %d classifications (%d invalidated, %d expired), %d splits, %d joins, %d drops, %d active ranges, %d mapped, %d journal events\n",
		count, st.Cycles, st.Classifications, st.Invalidations, st.Expirations,
		st.Splits, st.Joins, st.Drops, len(srv.Snapshot()), len(srv.Mapped()), n.Journal.Recorded())
	fmt.Fprintf(os.Stderr, "ipd: stattime accepted %d, dropped %d stale, %d future, %d inactive\n",
		bin.Accepted, bin.DroppedStale, bin.DroppedFuture, bin.DroppedInactive)
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
func explain(w io.Writer, src *ipd.Server, j *ipd.Journal, ips string) error {
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
