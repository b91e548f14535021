package core

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ipd/internal/flow"
	"ipd/internal/netaddr"
	"ipd/internal/persist"
	"ipd/internal/stattime"
	"ipd/internal/telemetry"
	"ipd/internal/trace"
)

// Server wraps an Engine with the deployment's structure (§3.2: stage 1 and
// stage 2 run in parallel threads; §3.1: a statistical-time pre-processing
// step cleans router clock drift). Ingest takes record batches: RunQueue
// drains them from the bounded IngestQueue the collectors feed, and a trace
// reader hands them over directly. The statistical-time binner segments them
// into buckets; each completed bucket is ingested and stage-2 cycles run as
// statistical time crosses T boundaries. Snapshots may be taken concurrently
// from other goroutines.
//
// Locking contract: mu guards all mutable engine and binner state (the
// trie, range states, open buckets). Ingest and Finish are the only writers;
// Ingest acquires mu once per batch of records, not once per record, so snapshot
// readers get a chance to interleave at batch boundaries even under
// saturating input. Snapshot, Mapped, LookupTable, and Range take mu to
// read structured state. Stats and the telemetry registry deliberately do
// NOT take mu: all counters are atomics, so scrapes never block ingest.
type Server struct {
	mu  sync.Mutex
	eng *Engine
	bin *stattime.Binner

	// ckpt, when non-nil, makes Ingest write a checkpoint every
	// ckptEvery stage-2 cycles and Finish a final one. The encode runs
	// under mu; the file write happens off-lock at a batch boundary, so
	// checkpointing never touches the Observe hot path.
	ckpt       *persist.Manager
	ckptEvery  uint64
	ckptCycles uint64 // cycle count at the last checkpoint

	// workload, when non-nil, receives every drained record batch before it
	// enters the ingest lock — the collector-drain feed of the workload
	// profiler. The observer is internally synchronized and must not call
	// back into the server.
	workload func(batch []flow.Record)

	// lockWaitNanos accumulates how long Ingest waited to acquire mu;
	// lockAcquisitions counts the acquisitions. Together they are the
	// ingest-lock contention signal the timeline records (the measurement
	// that motivates the sharded-engine direction): wait time per batch is
	// exactly how much snapshot/scrape readers delay ingest.
	lockWaitNanos    atomic.Int64
	lockAcquisitions atomic.Uint64
}

// runBatch bounds how many records RunQueue drains per mu acquisition: large
// enough to amortize the lock, small enough to bound snapshot latency.
const runBatch = 512

// NewServer builds a server from the IPD configuration and a
// statistical-time configuration. The binner's bucket length is forced to
// divide into the cycle semantics by simply using it as-is; the usual setup
// is stattime.Bucket == cfg.T. The binner's metrics join the engine's
// telemetry registry.
func NewServer(cfg Config, st stattime.Config) (*Server, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{eng: eng}
	bin, err := stattime.NewBinner(st, s.ingestBucket)
	if err != nil {
		return nil, err
	}
	bin.SetMetrics(stattime.NewMetrics(eng.Telemetry()))
	s.bin = bin
	return s, nil
}

// SetTracer attaches a pipeline tracer to both the engine (observe and
// cycle-phase spans) and the statistical-time binner (bin spans); nil
// detaches. Call during setup, before the first Ingest.
func (s *Server) SetTracer(t *trace.Tracer) {
	s.eng.SetTracer(t)
	s.bin.SetTracer(t)
}

// SetCheckpoint arranges for Ingest to write a checkpoint via mgr
// every everyCycles stage-2 cycles (minimum 1), and for Finish a final one.
// Call during setup, before the first Ingest. Write failures are counted by
// the manager (ipd_checkpoint_errors_total) and do not interrupt ingest —
// the previous checkpoint stays valid.
func (s *Server) SetCheckpoint(mgr *persist.Manager, everyCycles uint64) {
	if everyCycles < 1 {
		everyCycles = 1
	}
	s.ckpt = mgr
	s.ckptEvery = everyCycles
	s.ckptCycles = s.eng.Cycles()
}

// SetWorkload attaches a workload observer fed each drained record batch
// (workload.Profiler.ObserveBatch). The batches are exactly those handed to
// Ingest; the observer applies its own thinning, so every record is handed
// over. Runs outside the ingest lock. Call during setup, before the first
// Ingest.
func (s *Server) SetWorkload(fn func(batch []flow.Record)) { s.workload = fn }

// SetCycleHook arranges for fn to run at the start of every stage-2 cycle,
// under the server lock, with the cycle's statistical time and a reader of
// the classified ranges as the previous cycle left them. fn must not call
// back into the server, and while it runs (a write to a blocked pipe, say)
// ingest and every locked reader wait. Call during setup, before the first
// Ingest.
func (s *Server) SetCycleHook(fn func(at time.Time, mapped func() []RangeInfo)) {
	s.eng.beforeCycle = func(at time.Time) { fn(at, s.eng.Mapped) }
}

// BinHook turns fn into a cycle hook for SetCycleHook that calls it once per
// bin boundary b, a multiple of bin: as the first cycle after b starts, so
// mapped reads the ranges the last cycle at or before b left. The first
// boundary is the first at or after the first cycle.
func BinHook(bin time.Duration, fn func(b time.Time, mapped func() []RangeInfo)) func(at time.Time, mapped func() []RangeInfo) {
	var next time.Time
	return func(at time.Time, mapped func() []RangeInfo) {
		if next.IsZero() {
			if next = at.Truncate(bin); next.Before(at) {
				next = next.Add(bin)
			}
		}
		for ; next.Before(at); next = next.Add(bin) {
			fn(next, mapped)
		}
	}
}

// maybeCheckpoint writes a checkpoint when the configured cycle interval
// has elapsed (or unconditionally when force is set, for shutdown). Called
// between batches, off the ingest lock.
func (s *Server) maybeCheckpoint(force bool) {
	if s.ckpt == nil {
		return
	}
	cycles := s.eng.Cycles()
	if !force && cycles-s.ckptCycles < s.ckptEvery {
		return
	}
	s.ckptCycles = cycles
	data, seq := s.EncodeCheckpoint()
	// A failed save is already accounted by the manager; ingest goes on
	// with the previous checkpoint intact.
	_ = s.ckpt.Save(seq, data)
}

// ingestBucket runs under s.mu (Ingest holds the lock around OfferBatch and
// Finish around Flush). The engine keeps no reference to the records, so the
// bucket's backing array goes straight back to the binner.
func (s *Server) ingestBucket(b stattime.Bucket) {
	s.eng.ObserveBatch(b.Records)
	s.eng.AdvanceTo(s.eng.Now())
	s.bin.Recycle(b.Records)
}

// Ingest is the one record path into the server: it offers one batch to the
// binner under a single lock acquisition (the locking contract on Server),
// measuring how long the acquisition blocked, and then writes a checkpoint
// if one is due. The two clock reads per batch (not per record) are noise
// next to the batch body. RunQueue drains the queue through it; a caller
// with a lossless input (a trace file) calls it directly, one goroutine at
// a time, and ends with Finish.
func (s *Server) Ingest(batch []flow.Record) {
	if s.workload != nil {
		s.workload(batch)
	}
	t0 := time.Now()
	s.mu.Lock()
	s.lockWaitNanos.Add(int64(time.Since(t0)))
	s.lockAcquisitions.Add(1)
	s.bin.OfferBatch(batch)
	s.mu.Unlock()
	s.maybeCheckpoint(false)
}

// LockContention returns the cumulative time Ingest spent waiting for the
// ingest lock and the number of acquisitions (safe for concurrent use).
// Feed it to timeline.Collector.SetContention so contention lands in the
// timeline as a per-cycle series.
func (s *Server) LockContention() (wait time.Duration, acquisitions uint64) {
	return time.Duration(s.lockWaitNanos.Load()), s.lockAcquisitions.Load()
}

// RunQueue consumes records from q until q is closed and drained or ctx is
// cancelled, then ends with Finish. It returns nil on queue close and
// ctx.Err() on cancellation. Cancellation is a graceful drain, not an abort:
// records already buffered in the queue are ingested before the flush, so a
// SIGTERM loses nothing that reached the process (the cmd/ipd-collector
// shutdown path); producers still racing their final offers extend that by
// at most drainLimit records.
//
// Each pass pops up to runBatch buffered records and hands them to Ingest,
// blocking only while the queue is empty.
func (s *Server) RunQueue(ctx context.Context, q *IngestQueue) error {
	const drainLimit = 1 << 20
	batch := make([]flow.Record, 0, runBatch)
drain:
	for drained := 0; drained < drainLimit; {
		var ended bool
		batch, ended = q.Pop(batch[:0], runBatch)
		if len(batch) > 0 {
			s.Ingest(batch)
		}
		switch {
		case ended:
			break drain
		case len(batch) == 0:
			select {
			case <-ctx.Done():
				break drain
			case <-q.wake:
			}
		case ctx.Err() != nil:
			drained += len(batch)
		}
	}
	s.Finish()
	return ctx.Err()
}

// Finish ends a run: it flushes the open statistical-time buckets, runs a
// final stage-2 cycle, and writes the final checkpoint off the lock.
func (s *Server) Finish() {
	s.mu.Lock()
	s.bin.Flush()
	s.eng.ForceCycle()
	s.mu.Unlock()
	s.maybeCheckpoint(true)
}

// Snapshot returns all active ranges (safe concurrently with RunQueue).
func (s *Server) Snapshot() []RangeInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Snapshot()
}

// Mapped returns the classified ranges (safe concurrently with RunQueue).
func (s *Server) Mapped() []RangeInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Mapped()
}

// LookupTable builds an LPM table from the current classified ranges (safe
// concurrently with RunQueue).
func (s *Server) LookupTable() *netaddr.Table[flow.Ingress] {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.LookupTable()
}

// Range returns the active range covering addr (safe concurrently with
// RunQueue).
func (s *Server) Range(addr netip.Addr) (RangeInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Range(addr)
}

// Explain reports the LPM walk, matched range, per-ingress vote shares, and
// current threshold verdict for addr (safe concurrently with RunQueue).
func (s *Server) Explain(addr netip.Addr) (Explanation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Explain(addr)
}

// IPStateCount returns the per-IP entries held in unclassified ranges
// (safe concurrently with RunQueue).
func (s *Server) IPStateCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.IPStateCount()
}

// SketchStatus returns the fixed-memory sketch tier's status (safe
// concurrently with RunQueue); the zero status when Config.Sketch is off.
func (s *Server) SketchStatus() SketchStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.SketchStatus()
}

// Stats returns engine and binner counters. Both are assembled from
// telemetry atomics, so this never takes mu and never contends with ingest.
func (s *Server) Stats() (Stats, stattime.Stats) {
	return s.eng.Stats(), s.bin.Stats()
}

// Telemetry returns the shared metric registry of the engine and binner,
// ready for Prometheus or JSON exposition. The registry is safe for
// concurrent use and scrapes do not contend with ingest.
func (s *Server) Telemetry() *telemetry.Registry { return s.eng.Telemetry() }
