package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"ipd"
	"ipd/internal/eval"
	stats "ipd/internal/metrics"
)

// reading is the process and pipeline state at a pass boundary.
type reading struct {
	at       time.Time
	cpu      time.Duration // process user+sys
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcCPU    float64 // seconds of GC CPU
	accepted uint64  // records statistical time took into a bucket
	lockWait time.Duration
	batches  uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntimeMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func gcCPUSeconds() float64 {
	if v := readRuntimeMetric("/cpu/classes/gc/total:cpu-seconds"); v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

func heapObjectBytes() uint64 {
	if v := readRuntimeMetric("/memory/classes/heap/objects:bytes"); v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

func takeReading(p *pipeline) reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	_, st := p.srv.Stats()
	wait, batches := p.srv.LockContention()
	return reading{
		at: time.Now(), cpu: processCPU(),
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcCPU: gcCPUSeconds(),
		accepted: st.Accepted, lockWait: wait, batches: batches,
	}
}

// pass is one timed region of the threaded pipeline: a number of block
// replays between two quiesced boundaries.
type pass struct {
	blockTimes []time.Duration
	blockCPU   []time.Duration // process CPU spent while each block was being sent
	cycles     []time.Duration
	sent       uint64
	delivered  uint64
	wall, cpu  time.Duration
	waited     time.Duration
	mallocs    uint64
	bytes      uint64
	depthMax   int
	shed       uint64
	rejected   uint64
	lockWait   time.Duration
	batches    uint64
	gcCycles   uint32
	gcCPU      float64
	heapPeak   uint64
	scrapes    int
}

// runPass replays the block n times through the started pipeline and
// measures between two quiesced boundaries. The observed workload's reader
// goroutine lives exactly as long as the pass.
func runPass(g *loadgen, n int, withScraper bool) (pass, error) {
	g.drain()
	g.cycles, g.waited, g.depthMax = nil, 0, 0
	var sc *scraper
	if withScraper {
		sc = startScraper(g.p.srv)
	}
	var ps pass
	before := takeReading(g.p)
	cpu := before.cpu
	for i := 0; i < n; i++ {
		ps.blockTimes = append(ps.blockTimes, g.runBlock())
		now := processCPU()
		ps.blockCPU = append(ps.blockCPU, now-cpu)
		cpu = now
		if h := heapObjectBytes(); h > ps.heapPeak {
			ps.heapPeak = h
		}
	}
	g.drain()
	after := takeReading(g.p)
	if sc != nil {
		ps.scrapes = sc.halt()
	}
	if g.skipped > 0 {
		return ps, fmt.Errorf("%d stage-2 cycles completed unseen between two polls", g.skipped)
	}
	ps.cycles = g.cycles
	ps.sent = uint64(n) * uint64(g.blk.records)
	ps.delivered = after.accepted - before.accepted
	ps.wall = after.at.Sub(before.at)
	ps.cpu = after.cpu - before.cpu
	ps.waited = g.waited
	ps.mallocs = after.mallocs - before.mallocs
	ps.bytes = after.bytes - before.bytes
	ps.depthMax = g.depthMax
	ps.shed, ps.rejected = g.p.queue.Shed(), g.p.queue.Rejected()
	ps.lockWait = after.lockWait - before.lockWait
	ps.batches = after.batches - before.batches
	ps.gcCycles = after.gcCycles - before.gcCycles
	ps.gcCPU = after.gcCPU - before.gcCPU
	return ps, nil
}

// verdict is what the system concluded, read after the final flush.
type verdict struct {
	accuracy float64 // correct predictions over all sampled ground-truth flows
	digest   string  // SHA-256 over the sorted prefix→ingress pairs
	ranges   int
	mapped   int
}

// finish stops the pipeline and runs the correctness checks: conservation
// of records across the layers, the ranges tiling both families, and no
// record lost inside the engine.
func finish(p *pipeline, blk *block) (verdict, error) {
	if err := p.stop(); err != nil {
		return verdict{}, fmt.Errorf("consumer: %w", err)
	}
	es, st := p.srv.Stats()
	decoded := p.decoded()
	queued := decoded - p.queue.Shed() - p.queue.Rejected()
	if binned := st.Accepted + st.DroppedStale + st.DroppedFuture; binned != queued {
		return verdict{}, fmt.Errorf("conservation: collectors decoded %d, queue passed %d, statistical time saw %d", decoded, queued, binned)
	}
	if observed := es.Records + es.RecordsDropped + st.DroppedInactive; observed != st.Accepted {
		return verdict{}, fmt.Errorf("conservation: statistical time accepted %d, engine saw %d after the final flush", st.Accepted, observed)
	}
	if bad := p.nf.Stats().Malformed.Load() + p.nf.Stats().UnknownExporter.Load() + p.nf.Stats().Panics.Load() +
		p.ix.Stats().Malformed.Load() + p.ix.Stats().UnknownExporter.Load() + p.ix.Stats().Panics.Load() +
		p.ix.Stats().UnknownTemplate.Load(); bad != 0 {
		return verdict{}, fmt.Errorf("collectors refused %d generated datagrams", bad)
	}
	snap := p.srv.Snapshot()
	if err := checkTiling(snap); err != nil {
		return verdict{}, err
	}
	v := verdict{ranges: len(snap)}
	v.digest, v.mapped = verdictDigest(snap)

	pred := eval.NewPredictor(p.srv.LookupTable(), blk.topo)
	var out eval.Outcome
	for _, rec := range blk.truth {
		out.Accumulate(pred.Classify(rec))
	}
	v.accuracy = ratio(float64(out.Correct), float64(out.Flows))
	return v, nil
}

// verdictDigest is the SHA-256 over the prefix→ingress pairs of a snapshot's
// classified ranges (Snapshot sorts by family, address, length), and their
// number.
func verdictDigest(snap []ipd.RangeInfo) (string, int) {
	h := sha256.New()
	mapped := 0
	for _, ri := range snap {
		if ri.Classified {
			mapped++
			fmt.Fprintf(h, "%s %s\n", ri.Prefix, ri.Ingress)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), mapped
}

// checkTiling verifies that the active ranges of each family cover its
// address space exactly once. Addresses are compared left-aligned in 64 bits
// (IPv6 ranges are at most /48 deep), so a family tiles when every range
// starts where the previous one ended and the last one ends at the wrap.
func checkTiling(snap []ipd.RangeInfo) error {
	var next [2]uint64
	var seen [2]bool
	for _, ri := range snap {
		fam, start := 0, uint64(0)
		if a := ri.Prefix.Addr(); a.Is4() {
			b := a.As4()
			start = uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32
		} else {
			fam = 1
			b := a.As16()
			for _, x := range b[:8] {
				start = start<<8 | uint64(x)
			}
		}
		if ri.Prefix.Bits() > 64 {
			return fmt.Errorf("tiling: range %v deeper than /64", ri.Prefix)
		}
		if start != next[fam] || (seen[fam] && next[fam] == 0) {
			return fmt.Errorf("tiling: range %v does not start where the previous one ended", ri.Prefix)
		}
		seen[fam] = true
		next[fam] = start + uint64(1)<<(64-uint(ri.Prefix.Bits())) // a /0 wraps to 0
	}
	for fam, name := range []string{"IPv4", "IPv6"} {
		if !seen[fam] || next[fam] != 0 {
			return fmt.Errorf("tiling: %s ranges do not cover the family", name)
		}
	}
	return nil
}

// trial is one independent set-up plus timed pass of the threaded pipeline.
type trial struct {
	setup       time.Duration
	startRanges int
	pass        pass
	verdict     verdict
	heapLive    uint64
	journaled   uint64
	seqFaults   uint64 // lost or reordered records and exporter restarts booked by exporter health
}

// runTrial builds the block, warms the pipeline up (both inside setup) and
// measures one pass.
func runTrial(w workload, sh shape, seed int64) (trial, error) {
	var tr trial
	t0 := time.Now()
	blk, err := buildBlock(w, sh, seed)
	if err != nil {
		return tr, err
	}
	clock := &virtualClock{}
	p, err := newPipeline(w, sh, blk, clock.now)
	if err != nil {
		return tr, err
	}
	p.start()
	g := newLoadgen(p, blk, clock, sh, 0)
	g.sendPreamble()
	if !w.cold {
		for i := 0; i < sh.warmBlocks; i++ {
			g.clean = i < w.cleanWarm
			g.runBlock()
		}
	}
	g.drain()
	tr.setup = time.Since(t0)
	if g.skipped > 0 {
		return tr, fmt.Errorf("warm-up: %d stage-2 cycles completed unseen between two polls", g.skipped)
	}
	tr.startRanges = len(p.srv.Snapshot())

	if tr.pass, err = runPass(g, sh.passBlocks, w.observed); err != nil {
		return tr, err
	}
	if tr.verdict, err = finish(p, blk); err != nil {
		return tr, err
	}
	if p.obs != nil {
		tr.journaled = p.obs.journal.Recorded()
		for _, feed := range p.obs.health.Snapshot().Exporters {
			tr.seqFaults += feed.LostRecords + feed.Reordered + feed.Restarts
		}
	}
	// Retained state of the system alone: the block and the generator are
	// dead from here on, the server is not.
	g, blk = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tr.heapLive = ms.HeapAlloc
	runtime.KeepAlive(p)
	return tr, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the nearest-rank q-quantile of v (0 for an empty sample).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return stats.NewCDF(v).Quantile(q)
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
