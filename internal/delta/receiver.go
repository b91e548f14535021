package delta

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"ipd/internal/flow"
	"ipd/internal/persist"
	"ipd/internal/telemetry"
)

// Apply is the receiver's hand-off to the engine: a batch of records in the
// deterministic merge order, plus the per-edge applied offsets *after* this
// batch. The callback must incorporate the records and (if it checkpoints)
// persist the offsets atomically with the state it snapshots — that pairing
// is what makes crash recovery exactly-once: a restored checkpoint's offsets
// name precisely the records its state already contains, and the handshake
// replays everything after. The offsets map is owned by the callee.
type Apply func(recs []flow.Record, applied map[string]uint64) error

// ReceiverConfig configures the core-side delta receiver.
type ReceiverConfig struct {
	// Edges lists the expected edge IDs. With it, the merge gate waits for
	// every listed edge before emitting — the deterministic mode the chaos
	// equivalence proof relies on. Empty means dynamic registration: edges
	// are merged as they appear, so the merge order depends on join timing.
	Edges []string
	// Heartbeat must match the senders'; read deadlines are 4x this. <= 0
	// selects DefaultHeartbeat.
	Heartbeat time.Duration
	// MergeStall, when > 0, excludes an edge from the merge gate after it
	// has been silent that long — trading determinism for liveness when an
	// edge dies mid-stream. 0 (the default) never excludes: a silent edge
	// stalls the merge until it returns, keeping the merge deterministic.
	MergeStall time.Duration
	// Apply receives merged batches; required.
	Apply Apply
	// DurableAcks makes acks advance only when MarkDurable reports offsets
	// persisted (typically from inside Apply, after writing a checkpoint).
	// An ack licenses the sender to discard, so a core that checkpoints
	// must not ack past what a crash would restore: with this set, a core
	// kill -9 + checkpoint restore loses nothing, because every record
	// after the restored offsets is still in some sender's spool. Without
	// it acks follow Apply immediately — correct only when the core never
	// restarts from an older state.
	DurableAcks bool
	// Logf receives session lifecycle messages; nil discards them.
	Logf func(format string, args ...any)
}

// bufferCap bounds each edge's pending (received, not yet emitted) records;
// past it the edge's reader blocks, pushing backpressure onto TCP.
const bufferCap = 1 << 16

// keyedRec is one pending record with its merge key and edge offset.
type keyedRec struct {
	key    time.Time // running-max Ts at enqueue: nondecreasing per edge
	offset uint64
	rec    flow.Record
}

// edgeState is everything the receiver tracks per edge, under Receiver.mu.
type edgeState struct {
	id        string
	queue     []keyedRec // pending records, keys nondecreasing
	head      int        // queue consumption index
	buffered  uint64     // highest offset enqueued (dedupe boundary)
	runMax    time.Time  // running-max record Ts (merge key source)
	watermark time.Time  // sender-reported watermark
	finned    bool       // Fin received: watermark is effectively +inf
	lastSeen  time.Time  // wall clock of last frame (MergeStall input)
	sess      uint64     // generation of the current session (0 = none)

	conns      uint64
	records    uint64
	duplicates uint64
	gaps       uint64 // records skipped forever (sender shed them)
}

func (e *edgeState) pending() int { return len(e.queue) - e.head }

// ReceiverEdgeStats is one edge's introspection snapshot.
type ReceiverEdgeStats struct {
	EdgeID     string    `json:"edge_id"`
	Connected  bool      `json:"connected"`
	Applied    uint64    `json:"applied"`
	Buffered   uint64    `json:"buffered"`
	Pending    int       `json:"pending"`
	Watermark  time.Time `json:"watermark"`
	Finned     bool      `json:"finned"`
	Conns      uint64    `json:"conns"`
	Records    uint64    `json:"records"`
	Duplicates uint64    `json:"duplicates"`
	Gaps       uint64    `json:"gaps"`
}

// ReceiverStats is the receiver's introspection snapshot.
type ReceiverStats struct {
	Edges    []ReceiverEdgeStats `json:"edges"`
	Applied  uint64              `json:"applied_records"`
	Batches  uint64              `json:"applied_batches"`
	Stalled  uint64              `json:"stall_overrides"`
	Sessions int                 `json:"active_sessions"`
	Done     bool                `json:"done"`
}

// Receiver accepts delta sessions, dedupes on per-edge record offsets, runs
// the deterministic watermark merge, and acks applied offsets back to each
// edge. With an explicit edge list the emitted record order — hence the
// engine partition built from it — is a pure function of the records, no
// matter how chaos reorders, cuts, or replays the transport.
type Receiver struct {
	cfg ReceiverConfig

	mu       sync.Mutex
	cond     *sync.Cond
	edges    map[string]*edgeState
	applied  map[string]uint64
	applying map[string]uint64 // offsets of the batch currently inside Apply
	durable  map[string]uint64 // acked boundary when DurableAcks is set
	sessSeq  uint64
	sessions int
	draining bool // single-flight guard: Apply runs outside mu
	closed   bool
	failErr  error
	doneCh   chan struct{}
	doneSet  bool

	appliedRecs uint64
	batches     uint64
	stalled     uint64

	lnMu sync.Mutex
	ln   net.Listener
}

// NewReceiver validates cfg and builds a receiver; call Serve to start.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Apply == nil {
		return nil, errors.New("delta: receiver needs an Apply callback")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Receiver{
		cfg:     cfg,
		edges:   make(map[string]*edgeState),
		applied: make(map[string]uint64),
		durable: make(map[string]uint64),
		doneCh:  make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	for _, id := range cfg.Edges {
		r.edges[id] = &edgeState{id: id}
	}
	return r, nil
}

// SetApplied seeds per-edge applied offsets from a restored checkpoint. Call
// before Serve: the next handshake for each edge resumes after its offset.
func (r *Receiver) SetApplied(applied map[string]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, off := range applied {
		r.applied[id] = off
		r.durable[id] = off
		e := r.edge(id)
		if off > e.buffered {
			e.buffered = off
		}
	}
}

// MarkDurable reports that offsets up to m have been persisted (a cluster
// checkpoint was written); with DurableAcks set, acks may now advance to
// them. Offsets are clamped to what has been applied — including the batch
// an in-flight Apply was handed, since a checkpoint covering it means the
// records are already on disk. Safe to call from inside Apply.
func (r *Receiver) MarkDurable(m map[string]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, off := range m {
		app := r.applied[id]
		if fly := r.applying[id]; fly > app {
			app = fly
		}
		if off > app {
			off = app
		}
		if off > r.durable[id] {
			r.durable[id] = off
		}
	}
}

// ackOffsetLocked is the offset a session may advertise to its sender: the
// durable boundary when DurableAcks is set, otherwise the applied one.
func (r *Receiver) ackOffsetLocked(id string) uint64 {
	if r.cfg.DurableAcks {
		return r.durable[id]
	}
	return r.applied[id]
}

// Applied returns a copy of the per-edge applied offsets.
func (r *Receiver) Applied() map[string]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.applied))
	for id, off := range r.applied {
		out[id] = off
	}
	return out
}

// Done is closed once every expected edge has sent Fin and every pending
// record has been applied — the cluster-harness convergence signal. With
// dynamic edges it closes when all *currently known* edges are finned.
func (r *Receiver) Done() <-chan struct{} { return r.doneCh }

// Err reports the fatal error that stopped the receiver, if any.
func (r *Receiver) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failErr
}

// Serve accepts sessions on ln until Close. It returns the first fatal
// error (an Apply failure), or nil on clean shutdown.
func (r *Receiver) Serve(ln net.Listener) error {
	r.lnMu.Lock()
	r.ln = ln
	r.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			fail := r.failErr
			r.mu.Unlock()
			if closed || fail != nil {
				return fail
			}
			return err
		}
		go r.serveConn(conn)
	}
}

// Close stops accepting and tears down the receiver.
func (r *Receiver) Close() error {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.lnMu.Lock()
	ln := r.ln
	r.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	return nil
}

// fail records a fatal error and tears everything down.
func (r *Receiver) fail(err error) {
	r.mu.Lock()
	if r.failErr == nil {
		r.failErr = err
	}
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	r.lnMu.Lock()
	ln := r.ln
	r.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// edge returns the state for id, creating it in dynamic mode. Caller holds
// mu.
func (r *Receiver) edge(id string) *edgeState {
	e := r.edges[id]
	if e == nil {
		e = &edgeState{id: id}
		r.edges[id] = e
	}
	return e
}

// expected reports whether id participates in the merge gate.
func (r *Receiver) expectedEdge(id string) bool {
	if len(r.cfg.Edges) == 0 {
		return true
	}
	for _, want := range r.cfg.Edges {
		if want == id {
			return true
		}
	}
	return false
}

// serveConn runs one session: handshake, then a frame-reader loop here and
// an ack/heartbeat writer goroutine.
func (r *Receiver) serveConn(conn net.Conn) {
	defer conn.Close()
	hb := r.cfg.Heartbeat

	writeFrame := func(f Frame) error {
		payload, err := EncodeFrame(f)
		if err != nil {
			return err
		}
		conn.SetWriteDeadline(time.Now().Add(4 * hb))
		return persist.WriteFrame(conn, payload)
	}

	fr := persist.NewFrameReader(conn, MaxFrameBytes+64)
	conn.SetReadDeadline(time.Now().Add(4 * hb))
	payload, err := fr.Next()
	if err != nil {
		return
	}
	hello, err := DecodeFrame(payload)
	if err != nil || hello.Type != FrameHello || hello.EdgeID == "" {
		r.cfg.Logf("delta receiver: rejecting session with bad hello (%v)", err)
		return
	}
	id := hello.EdgeID
	if !r.expectedEdge(id) {
		r.cfg.Logf("delta receiver: rejecting unknown edge %q", id)
		return
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	e := r.edge(id)
	r.sessSeq++
	sess := r.sessSeq
	e.sess = sess // replaces any half-dead previous session
	e.conns++
	e.lastSeen = time.Now()
	r.sessions++
	resume := r.ackOffsetLocked(id)
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		if e.sess == sess {
			e.sess = 0
		}
		r.sessions--
		r.cond.Broadcast()
		r.mu.Unlock()
	}()

	if err := writeFrame(Frame{Type: FrameHelloAck, Offset: resume}); err != nil {
		return
	}
	r.cfg.Logf("delta receiver: edge %q connected (session %d), resuming after offset %d", id, sess, resume)

	// Writer: acks when applied advances, heartbeats when idle.
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	defer func() { close(stopWriter); <-writerDone }()
	go func() {
		defer close(writerDone)
		lastAck := resume
		// Tick at a quarter heartbeat so acks reach the sender promptly;
		// idle ticks degrade to keepalive heartbeats.
		tick := time.NewTicker(max(hb/4, 5*time.Millisecond))
		defer tick.Stop()
		for {
			select {
			case <-stopWriter:
				return
			case <-tick.C:
			}
			r.mu.Lock()
			cur := r.ackOffsetLocked(id)
			stale := e.sess != sess || r.closed
			r.mu.Unlock()
			if stale {
				conn.Close() // unblock the reader promptly
				return
			}
			var f Frame
			if cur != lastAck {
				f = Frame{Type: FrameAck, Offset: cur}
			} else {
				f = Frame{Type: FrameHeartbeat}
			}
			if err := writeFrame(f); err != nil {
				conn.Close()
				return
			}
			if f.Type == FrameAck {
				lastAck = cur
			}
		}
	}()

	for {
		conn.SetReadDeadline(time.Now().Add(4 * hb))
		payload, err := fr.Next()
		if err != nil {
			r.cfg.Logf("delta receiver: edge %q session %d read: %v", id, sess, err)
			return
		}
		f, err := DecodeFrame(payload)
		if err != nil {
			r.cfg.Logf("delta receiver: edge %q session %d frame: %v", id, sess, err)
			return
		}
		if !r.ingestFrame(e, sess, f) {
			return
		}
	}
}

// ingestFrame folds one frame into the edge state and runs the merge.
// Returns false when the session is stale or the receiver is down.
func (r *Receiver) ingestFrame(e *edgeState, sess uint64, f Frame) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || e.sess != sess {
		return false
	}
	e.lastSeen = time.Now()
	switch f.Type {
	case FrameDelta:
		for i := range f.Records {
			off := f.Offset + uint64(i)
			if off <= e.buffered {
				e.duplicates++ // retransmit overlap; already queued or applied
				continue
			}
			if off > e.buffered+1 {
				e.gaps += off - e.buffered - 1 // sender shed these; gone forever
			}
			rec := f.Records[i]
			if rec.Ts.After(e.runMax) {
				e.runMax = rec.Ts
			}
			e.queue = append(e.queue, keyedRec{key: e.runMax, offset: off, rec: rec})
			e.buffered = off
			e.records++
		}
		if f.Watermark.After(e.watermark) {
			e.watermark = f.Watermark
		}
		// The received records themselves advance the watermark too; this
		// matters only when the sender shed (its advertised watermark then
		// covers records that never arrive).
		if e.runMax.After(e.watermark) {
			e.watermark = e.runMax
		}
	case FrameHeartbeat:
		if f.Watermark.After(e.watermark) {
			e.watermark = f.Watermark
		}
	case FrameFin:
		e.finned = true
	default:
		r.cfg.Logf("delta receiver: edge %q sent unexpected %v frame", e.id, f.Type)
		return false
	}

	if err := r.drainLocked(); err != nil {
		go r.fail(err)
		return false
	}

	// Backpressure: hold this edge's reader until the merge consumes its
	// backlog (progress comes from other edges' watermarks advancing).
	for e.pending() > bufferCap && !r.closed && e.sess == sess {
		waker := time.AfterFunc(r.cfg.Heartbeat, r.cond.Broadcast)
		r.cond.Wait()
		waker.Stop()
		if err := r.drainLocked(); err != nil {
			go r.fail(err)
			return false
		}
	}
	return !r.closed && e.sess == sess
}

// gateLocked computes the merge gate: the minimum watermark over expected
// edges, with Fin meaning "no constraint" and MergeStall optionally
// excluding silent edges. ok is false while the gate cannot admit anything
// (an expected edge has never reported).
func (r *Receiver) gateLocked() (gate time.Time, unbounded, ok bool) {
	ids := r.cfg.Edges
	if len(ids) == 0 {
		if len(r.edges) == 0 {
			return time.Time{}, false, false
		}
		ids = make([]string, 0, len(r.edges))
		for id := range r.edges {
			ids = append(ids, id)
		}
	}
	unbounded = true
	now := time.Now()
	for _, id := range ids {
		e := r.edges[id]
		if e == nil {
			e = r.edge(id)
		}
		if e.finned {
			continue
		}
		if r.cfg.MergeStall > 0 && !e.lastSeen.IsZero() && now.Sub(e.lastSeen) > r.cfg.MergeStall && e.pending() == 0 {
			r.stalled++
			continue // silent edge: liveness override, determinism forfeited
		}
		if e.watermark.IsZero() {
			return time.Time{}, false, false // edge not heard from yet
		}
		if unbounded || e.watermark.Before(gate) {
			gate = e.watermark
			unbounded = false
		}
	}
	return gate, unbounded, true
}

// collectLocked pops every record whose key is strictly below the merge
// gate, in (key, edgeID, offset) order. Strictly below: a record at the gate
// could still be joined by an equal-key record from an edge whose ID sorts
// earlier, so it is not yet ordered. Fin lifts the constraint and flushes
// the tails.
func (r *Receiver) collectLocked() ([]flow.Record, map[string]uint64) {
	gate, unbounded, ok := r.gateLocked()
	if !ok {
		return nil, nil
	}

	// Candidate edges in deterministic ID order.
	ids := make([]string, 0, len(r.edges))
	for id := range r.edges {
		if r.edges[id].pending() > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	var batch []flow.Record
	newApplied := make(map[string]uint64, len(r.applied))
	for id, off := range r.applied {
		newApplied[id] = off
	}
	for {
		var pick *edgeState
		for _, id := range ids {
			e := r.edges[id]
			if e.pending() == 0 {
				continue
			}
			head := e.queue[e.head]
			if !unbounded && !head.key.Before(gate) {
				continue
			}
			if pick == nil || head.key.Before(pick.queue[pick.head].key) {
				pick = e // strict Before keeps equal keys in edge-ID order
			}
		}
		if pick == nil {
			break
		}
		head := pick.queue[pick.head]
		batch = append(batch, head.rec)
		newApplied[pick.id] = head.offset
		pick.queue[pick.head] = keyedRec{}
		pick.head++
		if pick.head == len(pick.queue) {
			pick.queue = pick.queue[:0]
			pick.head = 0
		}
	}
	return batch, newApplied
}

// drainLocked runs the merge to quiescence. Apply is invoked with r.mu
// released (so it can checkpoint and call MarkDurable without deadlock); a
// single-flight guard keeps emission single-threaded, which preserves the
// deterministic order. Caller holds r.mu; it is held again on return.
func (r *Receiver) drainLocked() error {
	if r.draining {
		return nil // the active drainer will pick up this frame's work
	}
	r.draining = true
	defer func() { r.draining = false }()
	for {
		batch, newApplied := r.collectLocked()
		if len(batch) == 0 {
			break
		}
		r.applying = newApplied
		r.mu.Unlock()
		err := r.cfg.Apply(batch, newApplied)
		r.mu.Lock()
		r.applying = nil
		if err != nil {
			return fmt.Errorf("delta: apply: %w", err)
		}
		r.applied = newApplied
		r.appliedRecs += uint64(len(batch))
		r.batches++
		r.cond.Broadcast()
	}
	r.maybeDoneLocked()
	return nil
}

// maybeDoneLocked closes Done once every expected edge is finned and
// drained.
func (r *Receiver) maybeDoneLocked() {
	if r.doneSet {
		return
	}
	ids := r.cfg.Edges
	if len(ids) == 0 {
		if len(r.edges) == 0 {
			return
		}
		for id := range r.edges {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		e := r.edges[id]
		if e == nil || !e.finned || e.pending() > 0 {
			return
		}
	}
	r.doneSet = true
	close(r.doneCh)
}

// Stats snapshots the receiver for introspection.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.edges))
	for id := range r.edges {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	st := ReceiverStats{
		Applied:  r.appliedRecs,
		Batches:  r.batches,
		Stalled:  r.stalled,
		Sessions: r.sessions,
		Done:     r.doneSet,
	}
	for _, id := range ids {
		e := r.edges[id]
		st.Edges = append(st.Edges, ReceiverEdgeStats{
			EdgeID:     id,
			Connected:  e.sess != 0,
			Applied:    r.applied[id],
			Buffered:   e.buffered,
			Pending:    e.pending(),
			Watermark:  e.watermark,
			Finned:     e.finned,
			Conns:      e.conns,
			Records:    e.records,
			Duplicates: e.duplicates,
			Gaps:       e.gaps,
		})
	}
	return st
}

// RegisterMetrics exposes receiver counters on reg.
func (r *Receiver) RegisterMetrics(reg *telemetry.Registry) {
	stat := func(f func(ReceiverStats) float64) func() float64 {
		return func() float64 { return f(r.Stats()) }
	}
	reg.CounterFunc("ipd_delta_recv_applied_total",
		"Delta records applied to the engine in merge order.",
		stat(func(st ReceiverStats) float64 { return float64(st.Applied) }))
	reg.CounterFunc("ipd_delta_recv_batches_total",
		"Merge batches handed to the apply callback.",
		stat(func(st ReceiverStats) float64 { return float64(st.Batches) }))
	reg.CounterFunc("ipd_delta_recv_duplicates_total",
		"Retransmitted records dropped by offset dedupe.",
		stat(func(st ReceiverStats) float64 {
			var n uint64
			for _, e := range st.Edges {
				n += e.Duplicates
			}
			return float64(n)
		}))
	reg.CounterFunc("ipd_delta_recv_gaps_total",
		"Records lost upstream (edge shed them before sending).",
		stat(func(st ReceiverStats) float64 {
			var n uint64
			for _, e := range st.Edges {
				n += e.Gaps
			}
			return float64(n)
		}))
	reg.CounterFunc("ipd_delta_recv_stall_overrides_total",
		"Merge gate computations that excluded a silent edge.",
		stat(func(st ReceiverStats) float64 { return float64(st.Stalled) }))
	reg.GaugeFunc("ipd_delta_recv_sessions",
		"Active delta sessions.",
		stat(func(st ReceiverStats) float64 { return float64(st.Sessions) }))
	reg.GaugeFunc("ipd_delta_recv_pending",
		"Records buffered awaiting the merge gate.",
		stat(func(st ReceiverStats) float64 {
			var n int
			for _, e := range st.Edges {
				n += e.Pending
			}
			return float64(n)
		}))
}
