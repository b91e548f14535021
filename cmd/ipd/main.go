// Command ipd runs the Ingress Point Detection engine in one of three modes:
//
//   - a trace run (the default) reads a flow trace (binary trace format
//     from flowgen, or CSV) and emits the raw IPD output rows (Appendix B
//     format) every output bin;
//   - a listen run (-listen) is the deployment shape of §5.7: NetFlow v5
//     and IPFIX UDP collectors feeding the engine, with an HTTP status
//     surface for dashboards. IPFIX is the IPv6-capable input (the
//     deployment maps v6 at /48);
//   - -replay reconstructs the final partition from a decision journal
//     without reading any input.
//
// Both input modes take one record path: the statistical-time binner (§3.1)
// and the engine in one core.Server, so a trace gets the verdicts its
// records would get over the wire. A flag that belongs to the other input
// mode, or -listen or an input mode's flag next to -replay, is a usage
// error (exit 2). Without -factor6 a listen run maps IPv6 at the
// deployment factor 24 and a trace run at the laptop-scale 1e-8.
//
// Usage:
//
//	flowgen -minutes 30 -o trace.ipd
//	ipd -in trace.ipd -factor4 0.01 -bin 5m
//	ipd -in trace.csv -format csv -summary
//	ipd -in trace.ipd -log-level info -http :8080
//	ipd -in trace.ipd -journal decisions.jsonl -explain 10.1.2.3
//	ipd -in trace.ipd -trace-out trace.json
//	ipd -listen :2055 -ipfix :4739 -http :8080 -exporters exporters.csv
//	ipd -replay decisions.jsonl
//
// Trace runs: stage 2 runs every -t as statistical time advances, and the
// rows stamped at a -bin boundary B are the ranges the last cycle at or
// before B left; a final set follows the final cycle. The last stderr line
// counts the records the binner accepted and dropped. -explain prints the
// decision provenance for one or more IPs after the run. -trace-out writes
// the span flight recorder as a Chrome trace-event JSON file (Perfetto /
// chrome://tracing) after the run; the recorder keeps the last 8192 spans
// and samples per-record spans 1 in 1024. -resync switches the binary trace
// reader into degraded-mode ingest: corrupt byte stretches are scanned past
// (counted in ipd_records_resync_total) instead of aborting the run. It
// also lets the run go on past records the binner drops as future, more
// than 5 minutes ahead of statistical time (a timestamp jump, or a gap in
// which every feed fell silent; the records after such a gap are all
// dropped); without it the first such drop fails the run.
//
// Listen runs: the exporters file maps export source addresses to router
// IDs, one "address,router_id" pair per line. With -trust, unknown
// exporters are auto-registered with sequential router IDs after the
// highest one the exporters file assigns (useful for lab setups; never do
// this in production). Both collectors share one registry, so an address
// is one router whether it sends NetFlow v5 or IPFIX. Ingest is buffered
// through a bounded queue (-queue) that sheds the oldest records under
// overload (ipd_records_shed_total) instead of silently dropping the
// newest, and SIGTERM drains the queue, flushes open statistical-time
// buckets, and writes a final checkpoint before exiting. A listen run
// counts future drops in ipd_stattime_dropped_future_total and goes on.
//
// -http serves, in either input mode:
//
//	/metrics      Prometheus text exposition (text/plain; version=0.0.4)
//	/debug/vars   expvar-style JSON metric dump
//	/debug/pprof  net/http/pprof profiling surface
//	/ipd/ranges   filterable range snapshot (JSON)
//	/ipd/range    one range + its decision history
//	/ipd/explain  LPM walk, vote shares, and reason chain for an IP
//	/ipd/events   tail the decision journal by sequence number
//	/ipd/traces   tail the pipeline span flight recorder (JSON)
//	/ipd/governor resource-governor state, budgets, and utilization (JSON)
//	/ipd/timeline longitudinal per-cycle series (JSON, or format=csv)
//	/ipd/alerts   active flap/drift/exporter alerts and recent alert history (JSON)
//	/ipd/exporters per-exporter feed health: loss, skew, staleness, coverage (JSON)
//	/ipd/sketch   fixed-memory sketch tier sizing and accuracy bound when -sketch is set (JSON)
//	/healthz      liveness (503 once no stage-2 cycle completed within the stall window)
//	/readyz       readiness (additionally 503 while the last cycle overran its budget
//	              or the resource governor is in emergency)
//
// and, in a listen run, also:
//
//	/ranges       current mapped ranges (Appendix-B rows)
//	/stats        collector + engine counters (JSON)
//
// -log-level info emits one structured log line per stage-2 cycle.
// -journal mirrors every range-lifecycle decision to an append-only JSONL
// file that -replay folds back into the partition.
//
// Crash safety: -checkpoint-dir makes the process periodically write the
// full server state, the partition and the binner's open buckets, as a
// CRC-guarded checkpoint file (every -checkpoint-every stage-2 cycles, plus
// a final one at the end of the input or on SIGTERM), and on startup
// restore the newest valid checkpoint from that directory (an engine-only
// one from an older run restores with no open buckets); when -journal
// points at the journal of the interrupted run, the events recorded after
// the restored checkpoint are replayed on top, so the partition resumes
// exactly where the previous process died (the journal file is then
// appended to, not truncated). A cold start (no checkpoint in the
// directory) moves an existing journal to the first free <journal>.N
// instead, and a journal whose seqs do not increase line by line is
// refused rather than replayed.
//
// Resource governance: -max-ranges and -mem-budget bound the partition size
// and live heap; either implies -governor, which evaluates the budgets every
// stage-2 cycle (in a listen run, the ingest-queue depth too) and degrades
// gracefully instead of growing without bound under adversarial traffic:
// while degraded the engine defers splits and a listen run multiplies the
// -sample denominator by -sample-boost; in emergency low-traffic subtrees
// are force-compacted and the queue admits only 1 in N offered records.
// Governor state is served at /ipd/governor, drives /readyz (503 in
// emergency), and lands in the journal as governor events. A panicking
// range or an adversarial datagram is contained (quarantined range /
// abandoned datagram), never a crashed process.
//
// Longitudinal observability: a bounded in-process timeline samples the
// engine at the end of every stage-2 cycle (-timeline-window sizes the
// per-series ring, 0 disables) and runs flap/drift/convergence analytics on
// top; alerts land in the journal as alert events and the series are
// served at /ipd/timeline (JSON or format=csv) next to /ipd/alerts.
// -mutexprofile enables runtime mutex/block profiling for
// /debug/pprof/{mutex,block}.
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
	"net"
	"net/netip"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"ipd"
	"ipd/internal/core"
	"ipd/internal/flow"
	"ipd/internal/node"
	"ipd/internal/trace"
)

// options are the ipd flags: the process flags in node, the engine
// parameters parsed straight into cfg, and the flags of each input mode.
type options struct {
	node *node.Flags
	cfg  ipd.Config

	replay, http string

	// Trace runs.
	in, format, explain, traceOut string
	bin                           time.Duration
	summary, resync               bool

	// Listen runs.
	listen, ipfix, exporters string
	trust                    bool
	queue, sample, boost     int

	// bound, when set, receives the NetFlow and HTTP ("" without -http)
	// addresses a listen run bound, before it serves: how a caller that
	// passes port 0 learns the ports.
	bound func(netflow, http string)
}

// traceFlags and listenFlags are the flags only one input mode reads.
var (
	traceFlags  = []string{"in", "format", "resync", "bin", "summary", "explain", "trace-out"}
	listenFlags = []string{"ipfix", "exporters", "trust", "queue", "sample", "sample-boost"}
)

func newOptions(fs *flag.FlagSet) *options {
	o := &options{cfg: ipd.DefaultConfig()}
	o.node = node.RegisterFlags(fs, &o.cfg)
	fs.Float64Var(&o.cfg.NCidrFactor6, "factor6", 1e-8, "IPv6 n_cidr factor (unset, a -listen run takes the deployment's 24)")
	fs.IntVar(&o.cfg.CIDRMax4, "cidrmax4", 28, "IPv4 cidr_max")
	fs.IntVar(&o.cfg.CIDRMax6, "cidrmax6", 48, "IPv6 cidr_max")
	fs.DurationVar(&o.cfg.T, "t", time.Minute, "cycle length")
	fs.DurationVar(&o.cfg.E, "e", 2*time.Minute, "per-IP state expiration")
	fs.BoolVar(&o.cfg.CountBytes, "bytes", false, "count bytes instead of flows")
	fs.StringVar(&o.http, "http", "", "serve /metrics, /debug/vars, /debug/pprof, and /ipd/* introspection on this address (and /ranges, /stats with -listen) ('' disables)")
	fs.StringVar(&o.replay, "replay", "", "replay a JSONL decision journal and print the reconstructed partition (no input is read)")

	fs.StringVar(&o.in, "in", "-", "input trace file ('-' = stdin)")
	fs.StringVar(&o.format, "format", "binary", "input format: binary or csv")
	fs.DurationVar(&o.bin, "bin", 5*time.Minute, "output bin length")
	fs.BoolVar(&o.summary, "summary", false, "print only the final summary")
	fs.StringVar(&o.explain, "explain", "", "comma-separated IPs: print decision provenance for each after the run")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the flight recorder as Chrome trace-event JSON (load in Perfetto / chrome://tracing) after the run ('' disables)")
	fs.BoolVar(&o.resync, "resync", false, "degraded-mode ingest: scan past corrupt bytes in the binary trace instead of aborting (counted in ipd_records_resync_total)")

	fs.StringVar(&o.listen, "listen", "", "UDP address for NetFlow v5: collect from the network instead of reading a trace ('' reads a trace)")
	fs.StringVar(&o.ipfix, "ipfix", "", "UDP address for IPFIX ('' disables, registered port :4739)")
	fs.StringVar(&o.exporters, "exporters", "", "CSV file mapping exporter address to router id")
	fs.BoolVar(&o.trust, "trust", false, "auto-register unknown exporters (lab use only)")
	fs.IntVar(&o.queue, "queue", 1<<14, "bounded ingest queue capacity (oldest records shed under overload)")
	fs.IntVar(&o.sample, "sample", 1, "additional 1-in-N record sampling in front of the ingest queue (1 = keep everything; routers already sample)")
	fs.IntVar(&o.boost, "sample-boost", 8, "multiply the -sample denominator by this factor while the governor is degraded or worse")
	return o
}

// validate checks the parsed command line fs; the first violated rule
// wins. A flag of another mode is rejected rather than ignored, so a script
// that mixes the modes fails loudly: -replay reads no input, so it takes
// neither -listen nor the flags of either input mode. validate also settles
// the one default that depends on the mode: a listen run left without
// -factor6 maps IPv6 at the deployment factor (core.DefaultConfig), as the
// collector did before it became a mode of ipd; a trace run keeps the
// laptop-scale 1e-8.
func (o *options) validate(fs *flag.FlagSet) error {
	var err error
	factor6 := false
	fs.Visit(func(f *flag.Flag) {
		factor6 = factor6 || f.Name == "factor6"
		switch {
		case err != nil:
		case o.replay != "" && (f.Name == "listen" || slices.Contains(traceFlags, f.Name) || slices.Contains(listenFlags, f.Name)):
			err = fmt.Errorf("-%s does not apply with -replay (it reads no input)", f.Name)
		case o.listen != "" && slices.Contains(traceFlags, f.Name):
			err = fmt.Errorf("-%s reads a trace; it does not apply with -listen", f.Name)
		case o.listen == "" && slices.Contains(listenFlags, f.Name):
			err = fmt.Errorf("-%s applies only with -listen", f.Name)
		}
	})
	if err != nil {
		return err
	}
	if o.listen != "" && !factor6 {
		o.cfg.NCidrFactor6 = ipd.DefaultConfig().NCidrFactor6
	}
	if err := o.node.Validate(); err != nil {
		return err
	}
	// A zero value for any of the ingest pipeline flags is a dead
	// pipeline, not a degraded one.
	for _, f := range []struct {
		name string
		got  int
	}{{"-queue", o.queue}, {"-sample", o.sample}, {"-sample-boost", o.boost}} {
		if f.got < 1 {
			return fmt.Errorf("%s must be >= 1 (got %d)", f.name, f.got)
		}
	}
	return nil
}

func main() {
	o := newOptions(flag.CommandLine)
	flag.Parse()
	if err := o.validate(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "ipd:", err)
		os.Exit(2)
	}
	var err error
	switch {
	case o.replay != "":
		err = replay(o.replay)
	case o.listen != "":
		// SIGTERM and SIGINT end a listen run through its drain; a trace
		// run keeps the default handling and dies at once.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = listen(ctx, o)
		stop()
	default:
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipd:", err)
		os.Exit(1)
	}
}

// start assembles the process both input modes run: the node, the server
// built from its Config, the attached observers (traced when something
// reads the spans: an HTTP address or a trace file), and the state a
// previous run checkpointed and journaled. The caller closes the node.
func start(o *options, gi node.GovernorInputs) (*node.Node, *ipd.Server, error) {
	n, err := node.New(o.node, o.cfg, gi)
	if err != nil {
		return nil, nil, err
	}
	srv, err := ipd.NewServer(n.Config, ipd.DefaultStatTimeConfig())
	if err == nil {
		err = n.Attach(srv, o.http != "" || o.traceOut != "")
	}
	if err == nil {
		// Crash recovery: restore the newest valid checkpoint and replay
		// the journal tail; the server then checkpoints at ingest-batch
		// boundaries and once more as it finishes.
		err = n.Restore()
	}
	if err != nil {
		n.Close()
		return nil, nil, err
	}
	return n, srv, nil
}

// replay implements -replay: rebuild the partition from a decision log by
// folding it through a fresh server (OnEvent nil, so it starts at seq 0).
func replay(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	srv, err := ipd.NewServer(ipd.DefaultConfig(), ipd.DefaultStatTimeConfig())
	if err != nil {
		return err
	}
	if _, err := ipd.ReplayJournalTail(bufio.NewReader(f), 0, srv.ApplyEvent); err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	ranges := srv.Snapshot()
	for _, ri := range ranges {
		if ri.Classified {
			fmt.Fprintf(out, "%s\t%s\n", ri.Prefix, ri.Ingress)
		} else {
			fmt.Fprintf(out, "%s\tunclassified\n", ri.Prefix)
		}
	}
	fmt.Fprintf(os.Stderr, "ipd: replayed %d events into %d active ranges\n", srv.Seq(), len(ranges))
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

	n, srv, err := start(o, node.GovernorInputs{})
	if err != nil {
		return err
	}
	defer n.Close()
	if o.http != "" {
		// Best-effort: the server lives as long as the run, and a bind
		// error is reported but does not stop it.
		if ln, err := net.Listen("tcp", o.http); err != nil {
			fmt.Fprintln(os.Stderr, "ipd: debug http:", err)
		} else {
			mux := n.Handler()
			go func() {
				if err := node.Serve(context.Background(), ln, mux); err != nil {
					fmt.Fprintln(os.Stderr, "ipd: debug http:", err)
				}
			}()
			fmt.Fprintf(os.Stderr, "ipd: debug endpoints on http://%s\n", ln.Addr())
		}
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	// Appendix-B rows: B's rows are the ranges the last cycle at or before
	// -bin boundary B left (core.BinHook, the rule the paper's figures run
	// by too), and the final set is stamped with the last cycle. The hook
	// runs inside Ingest and Finish; werr is checked after them.
	var last time.Time
	var werr error
	if !o.summary {
		bins := core.BinHook(o.bin, func(b time.Time, mapped func() []ipd.RangeInfo) {
			if werr == nil {
				werr = ipd.WriteOutputSnapshot(out, b, mapped(), nil)
			}
		})
		srv.SetCycleHook(func(at time.Time, mapped func() []ipd.RangeInfo) {
			bins(at, mapped)
			last = at
		})
	}

	// Records go to the server in batches of a listen run's drain size.
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
