// Command ipd-collector is the deployment shape of §5.7 in one process:
// NetFlow v5 and IPFIX UDP collectors feeding the IPD engine
// (statistical-time cleaning included), with an HTTP status surface for
// dashboards. IPFIX is the IPv6-capable input (the deployment maps v6 at
// /48).
//
//	ipd-collector -listen :2055 -ipfix :4739 -http :8080 -exporters exporters.csv
//
// The exporters file maps export source addresses to router IDs, one
// "address,router_id" pair per line. With -trust, unknown exporters are
// auto-registered with sequential router IDs after the highest one the
// exporters file assigns (useful for lab setups; never do this in
// production). Both collectors share one registry, so an address
// is one router whether it sends NetFlow v5 or IPFIX.
//
// HTTP endpoints:
//
//	/ranges       current mapped ranges (Appendix-B rows)
//	/stats        collector + engine counters (JSON)
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
// -log-level enables structured logs (one line per stage-2 cycle at info);
// -journal mirrors every range-lifecycle decision to an append-only JSONL
// file replayable with `ipd -replay`.
//
// Crash safety: -checkpoint-dir makes the daemon write CRC-guarded state
// checkpoints every -checkpoint-every stage-2 cycles (and once more on
// graceful shutdown), and restore the newest valid one on startup; with
// -journal pointing at the previous run's journal, events recorded after the
// restored checkpoint are replayed on top (the journal is then appended to,
// not truncated; a cold start moves an existing journal to <journal>.N
// first). Ingest is buffered through a bounded queue that sheds the
// oldest records under overload (ipd_records_shed_total) instead of silently
// dropping the newest, and SIGTERM drains the queue, flushes open statistical
// time buckets, and writes a final checkpoint before exiting.
//
// Resource governance: -max-ranges and -mem-budget bound the partition size
// and live heap; either implies -governor, which additionally watches the
// per-IP counter population and the ingest-queue depth. While degraded the
// engine defers splits and the -sample denominator is multiplied by
// -sample-boost; in emergency low-traffic subtrees are force-compacted and
// the queue admits only 1 in N offered records. A panicking range or an
// adversarial datagram is contained (quarantined range / abandoned
// datagram), never a crashed daemon.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ipd"
	"ipd/internal/cliflags"
	"ipd/internal/flow"
	"ipd/internal/ipfix"
	"ipd/internal/netflow"
	"ipd/internal/node"
)

// options are the ipd-collector flags; the ones ipd shares are in node.
type options struct {
	node *node.Flags
	cfg  ipd.Config

	listen, ipfix, http, exporters string
	trust                          bool
	queue, sample, boost           int
}

func newOptions(fs *flag.FlagSet) *options {
	o := &options{cfg: ipd.DefaultConfig()}
	o.node = node.RegisterFlags(fs, &o.cfg)
	fs.StringVar(&o.listen, "listen", ":2055", "UDP address for NetFlow v5")
	fs.StringVar(&o.ipfix, "ipfix", "", "UDP address for IPFIX ('' disables, registered port :4739)")
	fs.StringVar(&o.http, "http", ":8080", "HTTP status address ('' disables)")
	fs.StringVar(&o.exporters, "exporters", "", "CSV file mapping exporter address to router id")
	fs.BoolVar(&o.trust, "trust", false, "auto-register unknown exporters (lab use only)")
	fs.IntVar(&o.queue, "queue", 1<<14, "bounded ingest queue capacity (oldest records shed under overload)")
	fs.IntVar(&o.sample, "sample", 1, "additional 1-in-N record sampling in front of the ingest queue (1 = keep everything; routers already sample)")
	fs.IntVar(&o.boost, "sample-boost", 8, "multiply the -sample denominator by this factor while the governor is degraded or worse")
	return o
}

func main() {
	o := newOptions(flag.CommandLine)
	flag.Parse()
	err := o.node.Validate()
	if err == nil {
		err = cliflags.Ingest(o.queue, o.sample, o.boost)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipd-collector:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ipd-collector:", err)
		os.Exit(1)
	}
}

func run(o *options) error {
	// The bounded ingest queue decouples the UDP receive loops from the
	// engine: Offer never blocks, and under overload the queue sheds the
	// *oldest* buffered records (ipd_records_shed_total) — the statistical
	// time binner would discard stale records anyway, so fresh traffic wins.
	// It is built first so the governor can watch its depth.
	queue := ipd.NewIngestQueue(o.queue)

	// The degradation sampler sits between the collectors and the queue. At
	// the configured -sample rate it is a plain 1-in-N subsampler; while the
	// governor is degraded or worse its denominator is multiplied by
	// -sample-boost, cutting inbound volume without reconfiguring exporters.
	sampler := ipd.NewFlowSampler(o.sample, 0)

	// The transition hook reads n.Logger: transitions fire only in stage-2
	// cycles, after New has returned.
	var n *node.Node
	n, err := node.New("ipd-collector", o.node, o.cfg, node.GovernorInputs{
		QueueCap:   o.queue,
		QueueDepth: queue.Len,
		OnTransition: func(from, to ipd.GovernorState) {
			if to == ipd.GovernorNormal {
				sampler.SetBoost(1)
			} else {
				sampler.SetBoost(o.boost)
			}
			n.Logger.Warn("governor transition", "from", from.String(), "to", to.String())
		},
	})
	if err != nil {
		return err
	}
	defer n.Close()
	srv, err := ipd.NewServer(n.Config, ipd.DefaultStatTimeConfig())
	if err != nil {
		return err
	}
	if err := n.Attach(srv, o.http != ""); err != nil {
		return err
	}
	queue.RegisterMetrics(srv.Telemetry())
	gov := n.Governor
	if gov != nil {
		// During emergency the queue admits 1 in 8 offered records (the
		// governor's emergencyAdmitN) — deterministic, so the surviving
		// subsample stays unbiased.
		queue.SetAdmission(gov.AdmitIngest)
	}
	sampling := o.sample > 1 || gov != nil
	if sampling {
		sampler.SetMetrics(ipd.NewFlowMetrics(srv.Telemetry()))
	}

	// Crash recovery: restore the newest valid checkpoint and replay the
	// journal tail; the server then checkpoints at ingest-batch boundaries,
	// off the engine lock, plus a final checkpoint during graceful shutdown.
	if err := n.Restore(); err != nil {
		return err
	}

	// The collectors feed the queue through the degradation sampler. When no
	// sampling is configured and no governor runs, the sampler is a
	// passthrough; keep the direct Offer in that case to spare the hot path
	// a closure call per record.
	sink := queue.Offer
	if sampling {
		sink = func(rec ipd.Record) {
			if sampler.Keep() {
				queue.Offer(rec)
			}
		}
	}
	coll, err := netflow.NewCollector(sink)
	if err != nil {
		return err
	}
	coll.SetHealth(n.Health)
	var ipfixColl *ipfix.Collector
	if o.ipfix != "" {
		ipfixColl, err = ipfix.NewCollector(sink)
		if err != nil {
			return err
		}
		ipfixColl.SetHealth(n.Health)
		// One registry for both protocols: an exporter is one router
		// whichever format it sends.
		ipfixColl.Exporters = coll.Exporters
	}
	var lastID ipd.RouterID
	if o.exporters != "" {
		count, last, err := loadExporters(coll.Exporters, o.exporters)
		if err != nil {
			return err
		}
		lastID = last
		fmt.Fprintf(os.Stderr, "ipd-collector: %d exporters registered\n", count)
	}
	if o.trust {
		enableTrust(coll.Exporters, lastID+1)
	}

	addrPort, err := coll.Listen(o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ipd-collector: NetFlow v5 on udp://%s\n", addrPort)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One slot per sender: the NetFlow, IPFIX and HTTP loops.
	errc := make(chan error, 3)
	go func() { errc <- coll.Serve(ctx) }()
	drained := make(chan struct{})
	go func() {
		// RunQueue returns ctx.Err(): only shutdown stops it.
		_ = srv.RunQueue(ctx, queue)
		close(drained)
	}()
	if ipfixColl != nil {
		ipfixPort, err := ipfixColl.Listen(o.ipfix)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ipd-collector: IPFIX on udp://%s\n", ipfixPort)
		go func() { errc <- ipfixColl.Serve(ctx) }()
	}

	if o.http != "" {
		registerCollectorMetrics(srv.Telemetry(), coll, ipfixColl)
		mux := n.Handler()
		mux.HandleFunc("/ranges", func(w http.ResponseWriter, _ *http.Request) {
			if err := ipd.WriteOutputSnapshot(w, time.Now(), srv.Mapped(), nil); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
			eng, bin := srv.Stats()
			st := coll.Stats()
			out := map[string]any{
				"collector": map[string]uint64{
					"datagrams":        st.Datagrams.Load(),
					"records":          st.Records.Load(),
					"malformed":        st.Malformed.Load(),
					"unknown_exporter": st.UnknownExporter.Load(),
					"panics":           st.Panics.Load(),
				},
				"engine": map[string]any{
					"records":         eng.Records,
					"cycles":          eng.Cycles,
					"classifications": eng.Classifications,
					"invalidations":   eng.Invalidations,
					"expirations":     eng.Expirations,
					"splits":          eng.Splits,
					"joins":           eng.Joins,
					"drops":           eng.Drops,
					"active_ranges":   eng.LastCycleRanges,
				},
				"stattime": map[string]uint64{
					"accepted":       bin.Accepted,
					"dropped_stale":  bin.DroppedStale,
					"dropped_future": bin.DroppedFuture,
				},
				"exporters": n.Health.Summary(),
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(out)
		})
		go func() { errc <- node.ListenAndServe(ctx, o.http, mux) }()
		fmt.Fprintf(os.Stderr, "ipd-collector: status on http://%s\n", o.http)
	}

	err = <-errc
	stop()
	queue.Close()
	// The drain ingests what is buffered, flushes the open statistical-time
	// buckets and writes the final checkpoint; its events must reach the
	// journal before Close.
	<-drained
	if err != nil {
		return err
	}
	return n.Close()
}

// registerCollectorMetrics exposes the UDP collectors' atomic counters on
// the shared registry, read lazily at scrape time (the IPFIX collector may
// be nil).
func registerCollectorMetrics(reg *ipd.TelemetryRegistry, coll *netflow.Collector, ipfixColl *ipfix.Collector) {
	nf := coll.Stats()
	reg.CounterFunc("ipd_netflow_datagrams_total",
		"NetFlow v5 datagrams received.", func() float64 { return float64(nf.Datagrams.Load()) })
	reg.CounterFunc("ipd_netflow_records_total",
		"NetFlow v5 records parsed.", func() float64 { return float64(nf.Records.Load()) })
	reg.CounterFunc("ipd_netflow_malformed_total",
		"Malformed NetFlow v5 datagrams.", func() float64 { return float64(nf.Malformed.Load()) })
	reg.CounterFunc("ipd_netflow_unknown_exporter_total",
		"NetFlow v5 datagrams from unregistered exporters.", func() float64 { return float64(nf.UnknownExporter.Load()) })
	reg.CounterFunc("ipd_netflow_panics_total",
		"NetFlow v5 datagrams abandoned after a contained decode/sink panic.", func() float64 { return float64(nf.Panics.Load()) })
	if ipfixColl == nil {
		return
	}
	ix := ipfixColl.Stats()
	reg.CounterFunc("ipd_ipfix_messages_total",
		"IPFIX messages received.", func() float64 { return float64(ix.Messages.Load()) })
	reg.CounterFunc("ipd_ipfix_records_total",
		"IPFIX data records parsed.", func() float64 { return float64(ix.Records.Load()) })
	reg.CounterFunc("ipd_ipfix_malformed_total",
		"Malformed IPFIX messages.", func() float64 { return float64(ix.Malformed.Load()) })
	reg.CounterFunc("ipd_ipfix_unknown_template_total",
		"IPFIX records skipped for unknown templates.", func() float64 { return float64(ix.UnknownTemplate.Load()) })
	reg.CounterFunc("ipd_ipfix_panics_total",
		"IPFIX messages abandoned after a contained decode/sink panic.", func() float64 { return float64(ix.Panics.Load()) })
}

// loadExporters reads "address,router_id" lines into the exporter registry
// both collectors share, and returns how many it read and the highest id.
func loadExporters(reg *flow.Exporters, path string) (n int, last ipd.RouterID, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 {
			return n, last, fmt.Errorf("exporters: bad line %q", line)
		}
		addr, err := netip.ParseAddr(strings.TrimSpace(parts[0]))
		if err != nil {
			return n, last, fmt.Errorf("exporters: %v", err)
		}
		id, err := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 16)
		if err != nil {
			return n, last, fmt.Errorf("exporters: %v", err)
		}
		reg.RegisterExporter(addr, ipd.RouterID(id))
		last = max(last, ipd.RouterID(id))
		n++
	}
	return n, last, sc.Err()
}

// enableTrust auto-registers unknown exporters of either protocol with
// sequential router IDs from next on (lab setups only; production must
// pre-register its border routers). next must lie above every registered
// id, or two routers' traffic would merge into one ingress.
func enableTrust(reg *flow.Exporters, next ipd.RouterID) {
	var mu sync.Mutex
	reg.SetUnknownPolicy(func(addr netip.Addr) (ipd.RouterID, bool) {
		mu.Lock()
		defer mu.Unlock()
		id := next
		next++
		fmt.Fprintf(os.Stderr, "ipd-collector: auto-registered exporter %v as router %d\n", addr, id)
		return id, true
	})
}
