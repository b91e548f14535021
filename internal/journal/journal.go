// Package journal records the engine's range-lifecycle decisions (the
// core.Event stream) into a bounded in-memory ring with a per-prefix history
// index, and optionally mirrors them to an append-only JSONL sink.
//
// The ring answers the live introspection queries — "what happened to this
// prefix" (History) and "what happened since sequence N" (Since) — while the
// JSONL sink is the durable decision log: ReplayTail feeds it back through
// core.Engine.ApplyEvent, which reconstructs the partition, classification
// and sketch provenance at any point of a run — how the paper's
// churn-attribution and case-study analyses are done after the fact.
//
// A Journal is attached to an engine via core.Config.OnEvent (Record matches
// that signature). Record is called synchronously from the engine's mutation
// path and must observe the core reentrancy contract: it copies the event and
// returns, never calling back into the engine. All methods are safe for
// concurrent use, so HTTP readers can tail the journal while ingest runs.
package journal

import (
	"encoding/json"
	"io"
	"sync"

	"ipd/internal/core"
	"ipd/internal/telemetry"
)

// DefaultCapacity is the ring size when Options.Capacity is unset: enough
// for hours of laptop-scale runs while staying a few MB at worst.
const DefaultCapacity = 4096

// Options configures a Journal. The zero value is usable.
type Options struct {
	// Capacity bounds the in-memory ring; 0 means DefaultCapacity. The
	// oldest events are overwritten on overflow (accounted in the
	// ipd_journal_overflow_total counter and Dropped).
	Capacity int

	// Sink, when non-nil, receives every event as one JSON line before it
	// enters the ring. The journal serializes writes; the writer does not
	// need its own locking. Write errors are counted and latch SinkErr, but
	// never stop recording.
	Sink io.Writer

	// Registry, when non-nil, receives the journal's overflow accounting —
	// see RegisterMetrics. A journal is usually built before its engine
	// (Config.OnEvent is needed at construction), so the engine's registry
	// is typically attached afterwards with RegisterMetrics instead.
	Registry *telemetry.Registry
}

// Journal is a bounded, concurrency-safe ring of lifecycle events with a
// per-prefix index.
type Journal struct {
	mu  sync.RWMutex
	buf []core.Event
	n   uint64 // total events recorded; buf[(n-1) % cap] is the newest

	// byPrefix maps a prefix string to the seqs of retained events that
	// touch it (as Event.Prefix or a member of Event.Children), oldest
	// first. Entries are evicted as the ring overwrites their events.
	byPrefix map[string][]uint64

	sink    io.Writer
	sinkErr error

	dropped   uint64
	sinkFails uint64
}

// New returns a journal with the given options.
func New(opts Options) *Journal {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	j := &Journal{
		buf:      make([]core.Event, capacity),
		byPrefix: make(map[string][]uint64),
		sink:     opts.Sink,
	}
	if opts.Registry != nil {
		j.RegisterMetrics(opts.Registry)
	}
	return j
}

// RegisterMetrics exposes the journal's accounting on reg (scrape-time
// functions, so attaching the engine's registry after construction is
// enough): ipd_journal_events_total, ipd_journal_overflow_total,
// ipd_journal_sink_errors_total, and the ipd_journal_retained gauge.
func (j *Journal) RegisterMetrics(reg *telemetry.Registry) {
	reg.CounterFunc("ipd_journal_events_total",
		"Lifecycle events recorded by the decision journal.", func() float64 {
			return float64(j.Recorded())
		})
	reg.CounterFunc("ipd_journal_overflow_total",
		"Events overwritten out of the journal ring (raise the capacity to retain more).", func() float64 {
			return float64(j.Dropped())
		})
	reg.CounterFunc("ipd_journal_sink_errors_total",
		"Write errors from the journal's JSONL sink.", func() float64 {
			j.mu.RLock()
			defer j.mu.RUnlock()
			return float64(j.sinkFails)
		})
	reg.GaugeFunc("ipd_journal_retained",
		"Events currently retained in the journal ring.", func() float64 {
			return float64(j.Len())
		})
}

// Record stores one event. It matches core.Config.OnEvent, which is how a
// journal is attached to an engine.
func (j *Journal) Record(ev core.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sink != nil {
		if b, err := json.Marshal(ev); err == nil {
			b = append(b, '\n')
			if _, werr := j.sink.Write(b); werr != nil {
				j.noteSinkErr(werr)
			}
		} else {
			j.noteSinkErr(err)
		}
	}
	pos := int(j.n % uint64(len(j.buf)))
	if j.n >= uint64(len(j.buf)) {
		j.evict(j.buf[pos])
		j.dropped++
	}
	j.buf[pos] = ev
	j.n++
	j.index(ev)
}

func (j *Journal) noteSinkErr(err error) {
	if j.sinkErr == nil {
		j.sinkErr = err
	}
	j.sinkFails++
}

// index adds ev's seq to the history lists of every prefix it touches.
func (j *Journal) index(ev core.Event) {
	j.byPrefix[ev.Prefix] = append(j.byPrefix[ev.Prefix], ev.Seq)
	for _, c := range ev.Children {
		j.byPrefix[c] = append(j.byPrefix[c], ev.Seq)
	}
}

// evict removes the overwritten event's seq from its prefix lists. Events
// are recorded in seq order, so the evicted seq is always at the front.
func (j *Journal) evict(old core.Event) {
	j.unindex(old.Prefix, old.Seq)
	for _, c := range old.Children {
		j.unindex(c, old.Seq)
	}
}

func (j *Journal) unindex(prefix string, seq uint64) {
	l := j.byPrefix[prefix]
	if len(l) == 0 || l[0] != seq {
		return
	}
	if len(l) == 1 {
		delete(j.byPrefix, prefix)
		return
	}
	j.byPrefix[prefix] = l[1:]
}

// Len returns the number of events currently retained in the ring.
func (j *Journal) Len() int {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.retained()
}

func (j *Journal) retained() int {
	if j.n < uint64(len(j.buf)) {
		return int(j.n)
	}
	return len(j.buf)
}

// Recorded returns the total number of events ever recorded.
func (j *Journal) Recorded() uint64 {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.n
}

// Dropped returns how many events have been overwritten out of the ring.
func (j *Journal) Dropped() uint64 {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.dropped
}

// SinkErr returns the first JSONL sink write error, if any.
func (j *Journal) SinkErr() error {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.sinkErr
}

// Bounds returns the sequence numbers of the oldest and newest retained
// events (0, 0 when empty).
func (j *Journal) Bounds() (oldest, newest uint64) {
	j.mu.RLock()
	defer j.mu.RUnlock()
	r := j.retained()
	if r == 0 {
		return 0, 0
	}
	return j.at(0).Seq, j.at(r - 1).Seq
}

// at returns the i-th retained event, oldest first. Callers hold j.mu.
func (j *Journal) at(i int) core.Event {
	r := uint64(j.retained())
	return j.buf[(j.n-r+uint64(i))%uint64(len(j.buf))]
}

// Since returns up to limit retained events with Seq > seq, oldest first
// (limit <= 0 means no limit). It is the backing query of the
// /ipd/events?since= tail endpoint: pass the last seq you saw, get what
// happened after it.
func (j *Journal) Since(seq uint64, limit int) []core.Event {
	j.mu.RLock()
	defer j.mu.RUnlock()
	r := j.retained()
	// Binary search the ring window (ordered by seq) for the first event
	// past seq.
	lo, hi := 0, r
	for lo < hi {
		mid := (lo + hi) / 2
		if j.at(mid).Seq <= seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	count := r - lo
	if limit > 0 && count > limit {
		count = limit
	}
	out := make([]core.Event, count)
	for i := range out {
		out[i] = j.at(lo + i)
	}
	return out
}

// History returns the retained events that touched prefix (as the subject
// or as a split/join child), oldest first. The prefix must be in canonical
// masked form, as events render it (e.g. "10.0.0.0/8").
func (j *Journal) History(prefix string) []core.Event {
	j.mu.RLock()
	defer j.mu.RUnlock()
	seqs := j.byPrefix[prefix]
	if len(seqs) == 0 {
		return nil
	}
	r := j.retained()
	firstSeq := j.at(0).Seq
	out := make([]core.Event, 0, len(seqs))
	for _, s := range seqs {
		// Events are contiguous in seq when recorded straight from an
		// engine (the common case): try O(1) position lookup, fall back to
		// binary search for journals with gaps.
		if i := int(s - firstSeq); i >= 0 && i < r && j.at(i).Seq == s {
			out = append(out, j.at(i))
			continue
		}
		if ev, ok := j.find(s, r); ok {
			out = append(out, ev)
		}
	}
	return out
}

// find binary-searches the ring window for an exact seq. Callers hold j.mu.
func (j *Journal) find(seq uint64, r int) (core.Event, bool) {
	lo, hi := 0, r
	for lo < hi {
		mid := (lo + hi) / 2
		switch ev := j.at(mid); {
		case ev.Seq == seq:
			return ev, true
		case ev.Seq < seq:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return core.Event{}, false
}

// All returns every retained event, oldest first.
func (j *Journal) All() []core.Event {
	return j.Since(0, 0)
}
