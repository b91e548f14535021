package core

import (
	"sync"
	"sync/atomic"

	"ipd/internal/flow"
	"ipd/internal/telemetry"
)

// IngestQueue is the bounded overload buffer between UDP collectors and
// Server.RunQueue. Unlike a plain channel — whose only non-blocking overflow
// policy is to drop the *newest* record — the queue sheds the *oldest*
// buffered record when full. Under sustained overload that keeps the buffer
// full of recent traffic, which is what a statistical-time pipeline wants:
// stale records would be dropped by the binner anyway, while fresh ones
// advance the time axis.
//
// Offer never blocks (safe to call from a receive loop); Pop/Wake are
// consumed by Server.RunQueue. All methods are safe for concurrent use.
type IngestQueue struct {
	mu     sync.Mutex
	buf    []flow.Record
	head   int // index of the oldest buffered record
	n      int // buffered record count
	closed bool

	wake chan struct{}

	// admit, when non-nil, is consulted before buffering; a false verdict
	// rejects the record outright (the governor's emergency admission
	// control). Set during setup, read atomically from receive loops.
	admit atomic.Pointer[func() bool]

	shed     telemetry.Counter
	rejected telemetry.Counter
	depth    telemetry.Gauge
}

// NewIngestQueue returns a queue buffering up to capacity records
// (capacity < 1 is raised to 1).
func NewIngestQueue(capacity int) *IngestQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &IngestQueue{
		buf:  make([]flow.Record, capacity),
		wake: make(chan struct{}, 1),
	}
}

// RegisterMetrics exposes the queue's overload accounting on reg:
// ipd_records_shed_total and the ipd_ingest_queue_depth gauge.
func (q *IngestQueue) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("ipd_records_shed_total",
		"Records shed (oldest first) by the bounded ingest queue under overload.", &q.shed)
	reg.RegisterCounter("ipd_records_rejected_total",
		"Records rejected by emergency admission control before buffering.", &q.rejected)
	reg.RegisterGauge("ipd_ingest_queue_depth",
		"Records currently buffered in the ingest queue.", &q.depth)
}

// SetAdmission installs an admission predicate consulted by every Offer;
// records it rejects are counted in ipd_records_rejected_total and never
// buffered. Wire governor.AdmitIngest here so emergency mode sheds load at
// the door instead of churning the shed-oldest ring. nil removes the
// predicate.
func (q *IngestQueue) SetAdmission(admit func() bool) {
	if admit == nil {
		q.admit.Store(nil)
		return
	}
	q.admit.Store(&admit)
}

// Rejected returns how many records admission control has turned away.
func (q *IngestQueue) Rejected() uint64 { return q.rejected.Value() }

// Offer enqueues rec, evicting the oldest buffered record when the queue is
// full (counted in ipd_records_shed_total). Offers after Close are shed.
func (q *IngestQueue) Offer(rec flow.Record) {
	if admit := q.admit.Load(); admit != nil && !(*admit)() {
		q.rejected.Inc()
		return
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.shed.Inc()
		return
	}
	if q.n == len(q.buf) {
		// Full: overwrite the oldest slot (shed-oldest policy).
		q.head = (q.head + 1) % len(q.buf)
		q.n--
		q.shed.Inc()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = rec
	q.n++
	q.depth.Set(int64(q.n))
	q.mu.Unlock()
	q.signal()
}

// Close marks the end of the stream: buffered records remain poppable,
// further Offers are shed, and consumers wake to observe the drained state.
func (q *IngestQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

func (q *IngestQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Pop appends up to max buffered records to dst (oldest first) and reports
// whether the queue is closed with nothing left.
func (q *IngestQueue) Pop(dst []flow.Record, max int) ([]flow.Record, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := min(max, q.n); n > 0 {
		// The run of n records from head wraps around the ring at most once.
		first := q.buf[q.head:min(q.head+n, len(q.buf))]
		rest := q.buf[:n-len(first)]
		dst = append(append(dst, first...), rest...)
		clear(first) // release address references
		clear(rest)
		q.head = (q.head + n) % len(q.buf)
		q.n -= n
	}
	q.depth.Set(int64(q.n))
	return dst, q.closed && q.n == 0
}

// Len returns the buffered record count.
func (q *IngestQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// Shed returns how many records the queue has dropped under overload.
func (q *IngestQueue) Shed() uint64 { return q.shed.Value() }
