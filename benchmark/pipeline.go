package main

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"ipd"
	"ipd/internal/flow"
	"ipd/internal/ipfix"
	"ipd/internal/netflow"
)

// queueCap is the ingest queue capacity. The generator keeps the depth under
// half of it (shape.highWater), so the shed-oldest policy never engages and
// the measured figure is capacity, not loss.
const queueCap = 1 << 17

// engineConfig is the configuration every workload's engine runs: the
// laptop-scale evidence thresholds of the repo's perf fixtures
// (cmd/ipd-bench perf) plus the IPv6 factor of internal/experiments.
func engineConfig() ipd.Config {
	cfg := ipd.DefaultConfig()
	cfg.NCidrFactor4 = 0.01
	cfg.NCidrFactor6 = 1e-8
	cfg.NCidrFloor = 4
	return cfg
}

// governedConfig adds the per-IP budget, governor and sketch tier the way
// examples/spoofed-scan configures them. The collector's two door controls
// (sample boost, emergency admission) stay unwired: they protect the engine
// by discarding input, and this workload exists to measure the engine under
// the flood, so every offered record must reach it.
func governedConfig(cfg *ipd.Config, budget int) (*ipd.Governor, error) {
	gov, err := ipd.NewGovernor(ipd.GovernorConfig{MaxIPStates: budget, SketchTier: true})
	if err != nil {
		return nil, err
	}
	cfg.MaxIPStates = budget
	cfg.Sketch = true
	cfg.SketchWidth = 4096
	cfg.SketchDepth = 4
	cfg.Governor = gov
	return gov, nil
}

// observers is everything cmd/ipd-collector attaches for an operator, at
// the collector's flag defaults.
type observers struct {
	journal  *ipd.Journal
	health   *ipd.ExporterHealth
	profiler *ipd.WorkloadProfiler
	timeline *ipd.TimelineCollector
	tracer   *ipd.Tracer
}

// newObservers builds the observer set and hooks it into cfg. now is the
// exporter-health clock: the generator's virtual time, since export
// timestamps years behind the wall clock would read as clock skew on every
// feed.
func newObservers(cfg *ipd.Config, now func() time.Time) *observers {
	o := &observers{
		journal: ipd.NewJournal(ipd.JournalOptions{Capacity: 4096}),
		health:  ipd.NewExporterHealth(ipd.ExporterHealthOptions{Now: now}),
	}
	o.profiler = ipd.NewWorkloadProfiler(ipd.WorkloadOptions{Skew: o.health.RouterSkew})
	o.timeline = ipd.NewTimelineCollector(ipd.TimelineOptions{Window: 512})
	o.timeline.SetExporterHealth(o.health)
	o.timeline.SetWorkload(o.profiler)
	cfg.Coverage = o.health.IngressCoverage
	cfg.OnEvent = func(ev ipd.Event) {
		o.journal.Record(ev)
		o.timeline.ObserveEvent(ev)
	}
	cfg.OnCycle = o.timeline.OnCycle
	return o
}

// register exposes the observers' metrics on the engine's registry and
// builds the tracer against it (the registry exists only once the engine
// does).
func (o *observers) register(reg *ipd.TelemetryRegistry) {
	o.journal.RegisterMetrics(reg)
	o.health.RegisterMetrics(reg)
	o.profiler.RegisterMetrics(reg)
	o.timeline.RegisterMetrics(reg)
	o.tracer = ipd.NewTracer(ipd.TracerOptions{Registry: reg})
}

// exporterHealth is the tracker the collectors feed; nil when nothing is
// attached.
func (o *observers) exporterHealth() *ipd.ExporterHealth {
	if o == nil {
		return nil
	}
	return o.health
}

// pipeline is the deployed threading of cmd/ipd-collector without sockets:
// collector decode on the caller's goroutine, sink into the bounded ingest
// queue, one consumer goroutine in Server.RunQueue.
type pipeline struct {
	srv   *ipd.Server
	queue *ipd.IngestQueue
	nf    *netflow.Collector
	ix    *ipfix.Collector
	obs   *observers

	done chan error
}

func newPipeline(w workload, sh shape, blk *block, now func() time.Time) (*pipeline, error) {
	p := &pipeline{queue: ipd.NewIngestQueue(queueCap), done: make(chan error, 1)}
	cfg := engineConfig()
	var gov *ipd.Governor
	var err error
	if w.governed {
		if gov, err = governedConfig(&cfg, sh.ipStateBudget()); err != nil {
			return nil, err
		}
	}
	if w.observed {
		p.obs = newObservers(&cfg, now)
	}
	if p.srv, err = ipd.NewServer(cfg, ipd.DefaultStatTimeConfig()); err != nil {
		return nil, err
	}
	reg := p.srv.Telemetry()
	p.queue.RegisterMetrics(reg)
	if gov != nil {
		gov.RegisterMetrics(reg)
	}
	if p.obs != nil {
		p.obs.register(reg)
		p.obs.timeline.SetContention(p.srv.LockContention)
		p.srv.SetWorkload(p.obs.profiler.ObserveBatch)
		p.srv.SetTracer(p.obs.tracer)
	}
	p.nf, p.ix, err = newCollectors(blk, p.queue.Offer, p.obs.exporterHealth())
	return p, err
}

// newCollectors builds both wire collectors over one sink and registers the
// block's exporters with them.
func newCollectors(blk *block, sink func(flow.Record), health *ipd.ExporterHealth) (*netflow.Collector, *ipfix.Collector, error) {
	nf, err := netflow.NewCollector(sink)
	if err != nil {
		return nil, nil, err
	}
	ix, err := ipfix.NewCollector(sink)
	if err != nil {
		return nil, nil, err
	}
	if health != nil {
		nf.SetHealth(health)
		ix.SetHealth(health)
	}
	for _, router := range blk.routers {
		nf.RegisterExporter(exporterAddr(router), router)
		ix.RegisterExporter(exporterAddr(router), router)
	}
	return nf, ix, nil
}

// handle pushes one datagram through the matching collector.
func handle(nf *netflow.Collector, ix *ipfix.Collector, d *datagram) {
	if d.ipfix {
		ix.HandleMessage(d.payload, d.from.Addr())
		return
	}
	nf.HandleDatagram(d.payload, d.from)
}

func (p *pipeline) start() {
	go func() { p.done <- p.srv.RunQueue(context.Background(), p.queue) }()
}

// stop closes the queue and waits for the consumer's final flush.
func (p *pipeline) stop() error {
	p.queue.Close()
	return <-p.done
}

// decoded is the number of records both collectors have handed to the sink.
func (p *pipeline) decoded() uint64 {
	return p.nf.Stats().Records.Load() + p.ix.Stats().Records.Load()
}

// binned is the number of records statistical time has disposed of, one way
// or the other. DroppedInactive is not added: those records were counted as
// accepted when they arrived.
func (p *pipeline) binned() uint64 {
	_, st := p.srv.Stats()
	return st.Accepted + st.DroppedStale + st.DroppedFuture
}

// quiesce waits until the consumer has taken everything the producer
// decoded. Shed and rejected records never reach the binner, so they are
// allowed for; with the closed loop both stay zero.
func (p *pipeline) quiesce() {
	for p.queue.Len() > 0 || p.binned()+p.queue.Shed()+p.queue.Rejected() < p.decoded() {
		time.Sleep(100 * time.Microsecond)
	}
}

// virtualClock is the generator's position on the replayed time axis, read
// by the exporter-health tracker from the consumer side.
type virtualClock struct{ secs atomic.Int64 }

func (c *virtualClock) now() time.Time { return time.Unix(c.secs.Load(), 0) }

// loadgen is the single load-generator goroutine: it replays the block
// through the pipeline in a closed loop and watches the engine's cycle
// counter from outside.
type loadgen struct {
	p     *pipeline
	blk   *block
	clock *virtualClock

	replay    int32 // next replay index
	clean     bool  // leave the spoofed scan out of the replays
	highWater int   // queue depth above which the generator yields
	pollEvery int   // datagrams between two backpressure and cycle checks

	waited   time.Duration // time spent yielding to the consumer
	depthMax int

	cyclesSeen uint64
	cycles     []time.Duration
	skipped    uint64 // cycles that completed between two polls unseen
}

// newLoadgen starts at the given replay index. Polls are spaced so that at
// most a quarter of the high-water mark is produced between two of them:
// queue plus production then stay under one virtual minute of records, which
// is what lets pollCycles see every cycle.
func newLoadgen(p *pipeline, blk *block, clock *virtualClock, sh shape, replay int32) *loadgen {
	g := &loadgen{p: p, blk: blk, clock: clock, replay: replay, highWater: sh.highWater()}
	g.pollEvery = g.highWater / 4 / netflow.MaxRecords
	if g.pollEvery < 1 {
		g.pollEvery = 1
	}
	st, _ := p.srv.Stats()
	g.cyclesSeen = st.Cycles
	return g
}

// sendPreamble delivers the IPFIX template messages.
func (g *loadgen) sendPreamble() {
	for i := range g.blk.preamble {
		handle(g.p.nf, g.p.ix, &g.blk.preamble[i])
	}
}

// runBlock replays the block once and returns how long that took.
func (g *loadgen) runBlock() time.Duration {
	start := time.Now()
	for i := range g.blk.dgrams {
		d := &g.blk.dgrams[i]
		if !(d.scan && g.clean) {
			g.blk.setReplay(d, g.replay)
			handle(g.p.nf, g.p.ix, d)
		}
		if i%g.pollEvery != 0 {
			continue
		}
		g.clock.secs.Store(d.exportSecs())
		g.pollCycles()
		for depth := g.p.queue.Len(); depth > g.highWater; depth = g.p.queue.Len() {
			if depth > g.depthMax {
				g.depthMax = depth
			}
			t0 := time.Now()
			time.Sleep(100 * time.Microsecond)
			g.waited += time.Since(t0)
			g.pollCycles()
		}
	}
	g.replay++
	return time.Since(start)
}

// pollCycles samples the engine's lock-free stats for newly completed
// cycles. The duration is taken from a second read: the engine bumps the
// cycle count a few stores before it publishes the duration.
func (g *loadgen) pollCycles() {
	st, _ := g.p.srv.Stats()
	if st.Cycles == g.cyclesSeen {
		return
	}
	if st.Cycles > g.cyclesSeen+1 {
		g.skipped += st.Cycles - g.cyclesSeen - 1
	}
	g.cyclesSeen = st.Cycles
	st, _ = g.p.srv.Stats()
	g.cycles = append(g.cycles, st.LastCycleDuration)
}

// drain waits for the consumer to catch up and picks up the last cycles.
func (g *loadgen) drain() {
	g.p.quiesce()
	g.pollCycles()
}

// scraper is the observed workload's reader: at every tick it scrapes the
// telemetry registry and builds the LPM table, the way a metrics scraper and
// a lookup-table consumer would beside the running pipeline.
type scraper struct {
	stop chan struct{}
	wg   sync.WaitGroup
	n    int
}

const scrapeEvery = 250 * time.Millisecond

func startScraper(srv *ipd.Server) *scraper {
	s := &scraper{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				_ = srv.Telemetry().WritePrometheus(io.Discard) // io.Discard cannot fail
				_ = srv.LookupTable()
				s.n++
			}
		}
	}()
	return s
}

// halt stops the scraper and returns how many scrapes it made.
func (s *scraper) halt() int {
	close(s.stop)
	s.wg.Wait()
	return s.n
}
