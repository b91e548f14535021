package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ipd"
	"ipd/internal/flow"
	"ipd/internal/ipfix"
	"ipd/internal/netflow"
	"ipd/internal/stattime"
)

// Layer names of the traced run: the repo's modules, in pipeline order.
const (
	layerLoadgen  = "loadgen"
	layerNetflow  = "netflow"
	layerIPFIX    = "ipfix"
	layerSampler  = "flow.sampler"
	layerQueue    = "queue"
	layerWorkload = "workload"
	layerStattime = "stattime"
	layerObserve  = "core.observe"
	layerCycle    = "core.cycle"
)

// span is one traced interval: a block replay (parent -1) or one layer's
// work inside it. Spans of one replay share its index as identifier.
type span struct {
	name   string
	start  time.Time
	dur    time.Duration
	parent int
	replay int32
}

// batchLen is the drain granularity of Server.RunQueue, reproduced in the
// isolated queue and workload stages.
const batchLen = 512

// stages is the single-threaded, stage-isolated twin of the pipeline: the
// same public functions, called one layer at a time over a whole block, each
// layer's output materialised for the next. It is what the per-layer numbers
// are measured on; spans are recorded here, around the calls into each
// layer, never inside the program.
type stages struct {
	w     workload
	blk   *block
	clock *virtualClock

	nf      *netflow.Collector
	ix      *ipfix.Collector
	sampler *ipd.FlowSampler
	queue   *ipd.IngestQueue
	bin     *stattime.Binner
	binM    *stattime.Metrics
	eng     *ipd.Engine
	gov     *ipd.Governor
	obs     *observers

	decoded []flow.Record
	popped  []flow.Record
	batch   []flow.Record
	buckets []stattime.Bucket

	clean     bool // leave the spoofed scan out of the replays
	recording bool
	spans     []span
	wall      map[string]time.Duration
	allocs    map[string]uint64
	cycles    []time.Duration
	ipPeak    int
	skPeak    int
}

func newStages(w workload, sh shape, blk *block) (*stages, error) {
	s := &stages{
		w: w, blk: blk, clock: &virtualClock{},
		sampler: ipd.NewFlowSampler(1, 0),
		queue:   ipd.NewIngestQueue(queueCap),
		decoded: make([]flow.Record, 0, blk.records),
		popped:  make([]flow.Record, 0, blk.records),
		batch:   make([]flow.Record, 0, batchLen),
		wall:    map[string]time.Duration{},
		allocs:  map[string]uint64{},
	}
	cfg := engineConfig()
	var err error
	if w.governed {
		if s.gov, err = governedConfig(&cfg, sh.ipStateBudget()); err != nil {
			return nil, err
		}
	}
	if w.observed {
		s.obs = newObservers(&cfg, s.clock.now)
	}
	if s.eng, err = ipd.NewEngine(cfg); err != nil {
		return nil, err
	}
	s.binM = stattime.NewMetrics(nil)
	s.bin, err = stattime.NewBinner(ipd.DefaultStatTimeConfig(), func(b stattime.Bucket) {
		s.buckets = append(s.buckets, b)
	})
	if err != nil {
		return nil, err
	}
	s.bin.SetMetrics(s.binM)
	if s.obs != nil {
		s.obs.register(s.eng.Telemetry())
		s.eng.SetTracer(s.obs.tracer)
		s.bin.SetTracer(s.obs.tracer)
	}
	s.nf, s.ix, err = newCollectors(blk, func(rec flow.Record) { s.decoded = append(s.decoded, rec) }, s.obs.exporterHealth())
	return s, err
}

// layer times fn as one span of the given replay and books its allocations.
// The two MemStats reads stop the world, but outside the timed interval.
func (s *stages) layer(name string, parent int, replay int32, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	dur := time.Since(start)
	runtime.ReadMemStats(&after)
	if !s.recording {
		return
	}
	s.spans = append(s.spans, span{name: name, start: start, dur: dur, parent: parent, replay: replay})
	s.wall[name] += dur
	s.allocs[name] += after.Mallocs - before.Mallocs
}

// runBlock pushes one replay of the block through every layer in turn.
func (s *stages) runBlock(replay int32) {
	parent := len(s.spans)
	blockStart := time.Now()
	if s.recording {
		s.spans = append(s.spans, span{name: "block", start: blockStart, parent: -1, replay: replay})
	}

	s.layer(layerLoadgen, parent, replay, func() {
		for i := range s.blk.dgrams {
			s.blk.setReplay(&s.blk.dgrams[i], replay)
		}
	})
	s.decoded = s.decoded[:0]
	decode := layerNetflow
	if s.w.ipfix {
		decode = layerIPFIX
	}
	s.layer(decode, parent, replay, func() {
		for i := range s.blk.dgrams {
			d := &s.blk.dgrams[i]
			if d.scan && s.clean {
				continue
			}
			s.clock.secs.Store(d.exportSecs())
			handle(s.nf, s.ix, d)
		}
	})
	s.layer(layerSampler, parent, replay, func() {
		for range s.decoded {
			s.sampler.Keep()
		}
	})
	s.popped = s.popped[:0]
	s.layer(layerQueue, parent, replay, func() {
		for lo := 0; lo < len(s.decoded); lo += batchLen {
			hi := min(lo+batchLen, len(s.decoded))
			for _, rec := range s.decoded[lo:hi] {
				s.queue.Offer(rec)
			}
			s.batch, _ = s.queue.Pop(s.batch[:0], batchLen)
			s.popped = append(s.popped, s.batch...)
		}
	})
	if s.obs != nil {
		s.layer(layerWorkload, parent, replay, func() {
			for lo := 0; lo < len(s.popped); lo += batchLen {
				s.obs.profiler.ObserveBatch(s.popped[lo:min(lo+batchLen, len(s.popped))])
			}
		})
	}
	s.buckets = s.buckets[:0]
	s.layer(layerStattime, parent, replay, func() {
		for _, rec := range s.popped {
			s.bin.Offer(rec)
		}
	})
	s.ingestBuckets(parent, replay)

	if s.recording {
		s.spans[parent].dur = time.Since(blockStart)
	}
}

// ingestBuckets is Server.ingestBucket over the captured buckets: stage 1
// over a bucket's records, then stage 2 up to the engine's statistical now.
func (s *stages) ingestBuckets(parent int, replay int32) {
	for _, b := range s.buckets {
		s.layer(layerObserve, parent, replay, func() {
			for _, rec := range b.Records {
				s.eng.Observe(rec)
			}
		})
		before := s.eng.Cycles()
		s.layer(layerCycle, parent, replay, func() { s.eng.AdvanceTo(s.eng.Now()) })
		if s.recording && s.eng.Cycles() == before+1 {
			s.cycles = append(s.cycles, s.eng.Stats().LastCycleDuration)
		}
		if n := s.eng.IPStateCount(); n > s.ipPeak {
			s.ipPeak = n
		}
		if n := s.eng.SketchStatus().SketchedRanges; n > s.skPeak {
			s.skPeak = n
		}
	}
	s.buckets = s.buckets[:0]
}

// layerSum is the time spent inside layer spans; blockSum the time of the
// block spans that contain them.
func (s *stages) layerSum() (layers, blocks time.Duration) {
	for _, sp := range s.spans {
		if sp.parent < 0 {
			blocks += sp.dur
		} else {
			layers += sp.dur
		}
	}
	return layers, blocks
}

// writeChromeTrace writes the recorded spans in Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev), blocks on one lane and layers on the
// next.
func (s *stages) writeChromeTrace() error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if len(s.spans) == 0 {
		return nil
	}
	epoch := s.spans[0].start
	events := make([]event, 0, len(s.spans))
	for i, sp := range s.spans {
		tid := 2
		if sp.parent < 0 {
			tid = 1
		}
		events = append(events, event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(sp.start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  float64(sp.dur) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": sp.parent, "replay": sp.replay},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(traceDir, "trace-"+s.w.name+".json"), data, 0o644)
}

// traceDir receives the Chrome traces; it is relative to the working
// directory (the checkout root) and listed in .gitignore.
var traceDir = ".bench_out"

// runTraced is the -trace 1 run. One set-up: the block, and a stage-isolated
// warm-up of a bare engine. The warmed state then goes through the
// checkpoint codec into a threaded pipeline, which runs the same replays the
// traced pass will, untraced — the end-to-end side of every comparison
// (coverage, backpressure, lock wait, GC). Last, the traced pass itself.
func runTraced(w workload, sh shape, seed int64, rep *report) error {
	blk, err := buildBlock(w, sh, seed)
	if err != nil {
		return err
	}
	s, err := newStages(w, sh, blk)
	if err != nil {
		return err
	}
	for i := range blk.preamble {
		handle(s.nf, s.ix, &blk.preamble[i])
	}
	warm := int32(0)
	if !w.cold {
		for ; warm < int32(sh.warmBlocks); warm++ {
			s.clean = int(warm) < w.cleanWarm
			s.runBlock(warm)
		}
		s.clean = false
		// Close the warm-up's open buckets so the checkpoint (which carries
		// no binner section) and the traced pass start from the same point.
		s.bin.Flush()
		s.ingestBuckets(-1, warm)
	}

	m := newMetricSet(perLayer)
	rep.Result.Metrics = m.values

	// persist: engine state out, threaded server in.
	t0 := time.Now()
	state := s.eng.MarshalState()
	m.set("persist.checkpoint_encode_ms", float64(time.Since(t0))/float64(time.Millisecond))
	m.set("persist.checkpoint_bytes", float64(len(state)))
	var restore time.Duration
	threaded := func(w workload) (pass, verdict, error) {
		clock := &virtualClock{}
		p, err := newPipeline(w, sh, blk, clock.now)
		if err != nil {
			return pass{}, verdict{}, err
		}
		t0 := time.Now()
		if err := p.srv.RestoreCheckpoint(state); err != nil {
			return pass{}, verdict{}, fmt.Errorf("restore: %w", err)
		}
		restore = time.Since(t0)
		got, _ := verdictDigest(p.srv.Snapshot())
		if want, _ := verdictDigest(s.eng.Snapshot()); got != want {
			return pass{}, verdict{}, fmt.Errorf("restored server's verdicts (%.12s) differ from the checkpointed engine's (%.12s)", got, want)
		}
		p.start()
		g := newLoadgen(p, blk, clock, sh, warm)
		g.sendPreamble()
		ps, err := runPass(g, sh.passBlocks, w.observed)
		if err != nil {
			return ps, verdict{}, err
		}
		v, err := finish(p, blk)
		return ps, v, err
	}
	e2e, v, err := threaded(w)
	if err != nil {
		return fmt.Errorf("threaded pass: %w", err)
	}
	rep.VerdictDigest = v.digest
	rep.Result.Attempted = e2e.sent
	rep.Result.Failed = e2e.sent - e2e.delivered
	m.set("persist.restore_ms", float64(restore)/float64(time.Millisecond))
	perCore := ratio(float64(e2e.sent), e2e.cpu.Seconds())
	overhead := 0.0
	if w.observed {
		bare := w
		bare.observed = false
		b, _, err := threaded(bare)
		if err != nil {
			return fmt.Errorf("bare threaded pass: %w", err)
		}
		overhead = 1 - ratio(perCore, ratio(float64(b.sent), b.cpu.Seconds()))
	}
	m.set("observers.overhead_share", overhead)

	// The traced pass, from the same state over the same replays.
	startRanges := s.eng.RangeCount()
	m.set("core.ranges", float64(startRanges))
	m.set("core.classified_ranges", float64(len(s.eng.Mapped())))
	m.set("core.ip_states", float64(s.eng.IPStateCount()))
	es0, bs0 := s.eng.Stats(), s.bin.Stats()
	rebinned0 := s.binM.Rebinned.Value()
	nf0, ix0 := s.nf.Stats().Datagrams.Load(), s.ix.Stats().Messages.Load()
	nfRec0, ixRec0 := s.nf.Stats().Records.Load(), s.ix.Stats().Records.Load()
	var journal0 uint64
	if s.obs != nil {
		journal0 = s.obs.journal.Recorded()
	}
	s.recording, s.ipPeak, s.skPeak = true, 0, 0
	for i := int32(0); i < int32(sh.passBlocks); i++ {
		s.runBlock(warm + i)
	}
	s.recording = false
	es1, bs1 := s.eng.Stats(), s.bin.Stats()
	records := float64(sh.passBlocks) * float64(blk.records)

	perRecord := func(layer string) float64 { return ratio(float64(s.wall[layer]), records) }
	allocsPer := func(layer string) float64 { return ratio(float64(s.allocs[layer]), records) }
	m.set("loadgen.ns_per_record", perRecord(layerLoadgen))
	m.set("loadgen.backpressure_share", ratio(float64(e2e.waited), float64(e2e.wall)))
	m.set("netflow.decode_ns_per_record", perRecord(layerNetflow))
	m.set("netflow.decode_allocs_per_record", allocsPer(layerNetflow))
	m.set("netflow.datagrams", float64(s.nf.Stats().Datagrams.Load()-nf0))
	m.set("netflow.records", float64(s.nf.Stats().Records.Load()-nfRec0))
	m.set("netflow.malformed", float64(s.nf.Stats().Malformed.Load()))
	m.set("ipfix.decode_ns_per_record", perRecord(layerIPFIX))
	m.set("ipfix.decode_allocs_per_record", allocsPer(layerIPFIX))
	m.set("ipfix.messages", float64(s.ix.Stats().Messages.Load()-ix0))
	m.set("ipfix.records", float64(s.ix.Stats().Records.Load()-ixRec0))
	m.set("ipfix.skipped", float64(s.ix.Stats().SkippedRecords.Load()))
	m.set("flow.sampler_ns_per_record", perRecord(layerSampler))
	m.set("queue.ns_per_record", perRecord(layerQueue))
	m.set("queue.depth_max", float64(e2e.depthMax))
	m.set("queue.shed", float64(e2e.shed))
	m.set("queue.rejected", float64(e2e.rejected))
	m.set("stattime.ns_per_record", perRecord(layerStattime))
	m.set("stattime.allocs_per_record", allocsPer(layerStattime))
	m.set("stattime.accepted", float64(bs1.Accepted-bs0.Accepted))
	m.set("stattime.dropped_stale", float64(bs1.DroppedStale-bs0.DroppedStale))
	m.set("stattime.dropped_future", float64(bs1.DroppedFuture-bs0.DroppedFuture))
	m.set("stattime.rebinned", float64(s.binM.Rebinned.Value()-rebinned0))
	m.set("stattime.buckets", float64(bs1.BucketsEmitted-bs0.BucketsEmitted))
	observed := float64(es1.Records - es0.Records)
	m.set("core.observe_ns_per_record", ratio(float64(s.wall[layerObserve]), observed))
	m.set("core.observe_allocs_per_record", ratio(float64(s.allocs[layerObserve]), observed))
	m.set("core.v6_share", ratio(float64(es1.RecordsV6-es0.RecordsV6), observed))
	m.set("core.records", observed)
	m.set("core.records_dropped", float64(es1.RecordsDropped-es0.RecordsDropped))
	cycleMs := millis(s.cycles)
	m.set("core.cycle_p50_ms", median(cycleMs))
	m.set("core.cycle_p90_ms", quantile(cycleMs, 0.9))
	m.set("core.cycle_max_ms", quantile(cycleMs, 1))
	layers, blocks := s.layerSum()
	m.set("core.cycle_time_share", ratio(float64(s.wall[layerCycle]), float64(layers)))
	m.set("core.splits", float64(es1.Splits-es0.Splits))
	m.set("core.joins", float64(es1.Joins-es0.Joins))
	m.set("core.drops", float64(es1.Drops-es0.Drops))
	m.set("core.classifications", float64(es1.Classifications-es0.Classifications))
	m.set("core.invalidations", float64(es1.Invalidations-es0.Invalidations))
	m.set("core.expirations", float64(es1.Expirations-es0.Expirations))
	m.set("server.lock_wait_share", ratio(float64(e2e.lockWait), float64(e2e.wall)))
	m.set("server.batches", float64(e2e.batches))
	m.set("server.mean_batch_records", ratio(float64(e2e.sent), float64(e2e.batches)))

	// trie: the reader-side table, built from the pass's final partition and
	// probed with the last replay's sources.
	t0 = time.Now()
	table := s.eng.LookupTable()
	m.set("trie.lookup_table_build_ms", float64(time.Since(t0))/float64(time.Millisecond))
	hits := 0
	t0 = time.Now()
	for _, rec := range s.decoded {
		if _, _, ok := table.Lookup(rec.Src); ok {
			hits++
		}
	}
	m.set("trie.lookup_ns", ratio(float64(time.Since(t0)), float64(len(s.decoded))))
	m.set("core.classified_hit_share", ratio(float64(hits), float64(len(s.decoded))))

	changes := uint64(0)
	if s.gov != nil {
		for _, st := range []ipd.GovernorState{ipd.GovernorNormal, ipd.GovernorDegraded, ipd.GovernorEmergency} {
			changes += s.gov.Transitions(st)
		}
	}
	sk := s.eng.SketchStatus()
	m.set("governor.state_changes", float64(changes))
	m.set("governor.ip_states_peak", float64(s.ipPeak))
	m.set("sketch.sketched_ranges_peak", float64(s.skPeak))
	m.set("sketch.degrades", float64(sk.Degrades))
	m.set("sketch.hydrates", float64(sk.Hydrates))
	m.set("workload.observe_ns_per_record", perRecord(layerWorkload))
	journaled := uint64(0)
	if s.obs != nil {
		journaled = s.obs.journal.Recorded() - journal0
	}
	m.set("journal.events", float64(journaled))
	m.set("runtime.gc_cpu_share", ratio(e2e.gcCPU, e2e.cpu.Seconds()))
	m.set("runtime.gc_cycles", float64(e2e.gcCycles))
	m.set("runtime.heap_peak_mb", float64(e2e.heapPeak)/(1<<20))
	sum := ratio(float64(layers), records)
	m.set("layers.sum_ns_per_record", sum)
	m.set("layers.coverage", ratio(sum, ratio(float64(e2e.cpu), float64(e2e.sent))))
	m.set("trace.overhead_share", 1-ratio(float64(layers), float64(blocks)))

	rep.Samples["spans"] = len(s.spans)
	rep.Samples["cycles"] = len(s.cycles)
	rep.Samples["threaded_cycles"] = len(e2e.cycles)
	rep.Samples["start_ranges"] = startRanges
	rep.Samples["records_per_block"] = blk.records
	if err := s.writeChromeTrace(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := m.complete(); err != nil {
		return err
	}
	if rep.Result.Failed != 0 {
		return fmt.Errorf("%d of %d records sent did not reach the engine", rep.Result.Failed, rep.Result.Attempted)
	}
	if got := s.nf.Stats().Records.Load() + s.ix.Stats().Records.Load() - nfRec0 - ixRec0; got != uint64(records) {
		return fmt.Errorf("traced collectors decoded %d records, sent %.0f", got, records)
	}
	if dropped := es1.RecordsDropped + bs1.DroppedStale + bs1.DroppedFuture; dropped != 0 {
		return fmt.Errorf("traced layers dropped %d records", dropped)
	}
	if err := checkTiling(s.eng.Snapshot()); err != nil {
		return err
	}
	if w.cold {
		if startRanges != 2 {
			return fmt.Errorf("cold pass started from %d ranges, want the 2 roots", startRanges)
		}
	} else if want := minWarmRanges(sh); startRanges < want {
		return fmt.Errorf("warm pass started from %d ranges, want at least %d", startRanges, want)
	}
	return nil
}
