package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ipd"
	"ipd/internal/flow"
	"ipd/internal/ipfix"
	"ipd/internal/netflow"
	"ipd/internal/node"
)

// listen runs the UDP collectors into the server until ctx is done, then
// drains: the buffered records are ingested, the open statistical-time
// buckets flushed and the final checkpoint written before it returns.
func listen(ctx context.Context, o *options) error {
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
	// cycles, after start has returned.
	var n *node.Node
	n, srv, err := start(o, node.GovernorInputs{
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
		fmt.Fprintf(os.Stderr, "ipd: %d exporters registered\n", count)
	}
	if o.trust {
		enableTrust(coll.Exporters, lastID+1)
	}

	addrPort, err := coll.Listen(o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ipd: NetFlow v5 on udp://%s\n", addrPort)

	ctx, stop := context.WithCancel(ctx)
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
		fmt.Fprintf(os.Stderr, "ipd: IPFIX on udp://%s\n", ipfixPort)
		go func() { errc <- ipfixColl.Serve(ctx) }()
	}

	var ln net.Listener
	if o.http != "" {
		// A bind error goes through errc, so the loops already running
		// drain as they do on any other failure.
		if ln, err = net.Listen("tcp", o.http); err != nil {
			errc <- err
		}
	}
	var httpAddr string
	if ln != nil {
		httpAddr = ln.Addr().String()
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
		go func() { errc <- node.Serve(ctx, ln, mux) }()
		fmt.Fprintf(os.Stderr, "ipd: status on http://%s\n", httpAddr)
	}
	if o.bound != nil {
		o.bound(addrPort.String(), httpAddr)
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
		fmt.Fprintf(os.Stderr, "ipd: auto-registered exporter %v as router %d\n", addr, id)
		return id, true
	})
}
