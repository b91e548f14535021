package ipfix

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"ipd/internal/flow"
)

// HealthObserver receives per-message transport-header accounting that the
// record sink cannot see: the RFC 7011 sequence counter (counts data
// records sent before this message), the export timestamp, and template
// activity. dataRecords is the count of data records decoded from sets with
// known templates (including per-record skips); unknownSets counts data
// sets whose record totals are unknowable because no template matched.
// Called once per accepted message, after exporter attribution, from the
// receive goroutine — implementations must be fast and must not block.
type HealthObserver interface {
	ObserveIPFIX(router flow.RouterID, domain, seq uint32, dataRecords, templateRecords, unknownSets int, exportTime time.Time)
}

// CollectorStats counts collector activity.
type CollectorStats struct {
	Messages        atomic.Uint64
	Records         atomic.Uint64
	Malformed       atomic.Uint64
	UnknownExporter atomic.Uint64
	// UnknownTemplate counts data sets that arrived before their template
	// (they are dropped, as RFC 7011 collectors commonly do over UDP).
	UnknownTemplate atomic.Uint64
	SkippedRecords  atomic.Uint64
	// Panics counts messages whose decode or sink handoff panicked; the
	// receive loop recovers and keeps serving (the message is abandoned).
	Panics atomic.Uint64
}

// Collector receives IPFIX messages over UDP, attributes them to border
// routers via the exporter registry, resolves templates per exporter, and
// delivers flow records to a sink. It is the IPv6-capable sibling of the
// NetFlow v5 collector.
type Collector struct {
	// Exporters attributes messages to routers. Assign another collector's
	// registry before serving to share one attribution across protocols.
	*flow.Exporters

	// caches holds one template cache per matched registration: per address
	// for address-level exporters, per (address, port) for port-level ones,
	// so exporters sharing an address keep their templates apart.
	mu     sync.RWMutex
	caches map[netip.AddrPort]*Cache

	sink   func(flow.Record)
	health HealthObserver
	stats  CollectorStats
	sock   flow.Socket
}

// NewCollector returns a collector delivering records to sink.
func NewCollector(sink func(flow.Record)) (*Collector, error) {
	if sink == nil {
		return nil, fmt.Errorf("ipfix: sink must not be nil")
	}
	return &Collector{
		Exporters: flow.NewExporters(),
		caches:    make(map[netip.AddrPort]*Cache),
		sink:      sink,
	}, nil
}

// SetHealth attaches a health observer fed once per accepted message.
// Call before Serve.
func (c *Collector) SetHealth(h HealthObserver) { c.health = h }

// Stats returns the live counters.
func (c *Collector) Stats() *CollectorStats { return &c.stats }

// Listen binds the UDP socket (the IPFIX registered port is 4739).
func (c *Collector) Listen(addr string) (netip.AddrPort, error) { return c.sock.Listen(addr) }

// Serve reads messages until ctx is cancelled, attributing each by its full
// source address and port.
func (c *Collector) Serve(ctx context.Context) error { return c.sock.Serve(ctx, c.HandleMessageFrom) }

// HandleMessage processes one raw IPFIX message from the given exporter
// address; it is HandleMessageFrom with port 0, so only address-level
// registrations match.
func (c *Collector) HandleMessage(b []byte, from netip.Addr) {
	c.HandleMessageFrom(b, netip.AddrPortFrom(from, 0))
}

// HandleMessageFrom processes one raw IPFIX message from the given source
// (exposed for socketless pipelines and tests). Attribution prefers an exact
// (addr, port) registration, then the source address. A panic while
// decoding or sinking is contained: the message is abandoned,
// Stats().Panics counts it, and the receive loop keeps serving.
func (c *Collector) HandleMessageFrom(b []byte, from netip.AddrPort) {
	sunk := 0 // records the sink returned from, booked once per message
	defer func() {
		if recover() != nil {
			c.stats.Panics.Add(1)
		}
		c.stats.Records.Add(uint64(sunk))
	}()
	router, key, ok := c.Attribute(from)
	if !ok {
		c.stats.UnknownExporter.Add(1)
		return
	}
	// Validate the whole message before anything is sunk; its templates go
	// into the cache before any data set is decoded, so a data set may
	// precede its template inside one message.
	var msg Message
	sets, err := scanMessage(b, &msg)
	if err != nil {
		c.stats.Malformed.Add(1)
		return
	}
	c.mu.Lock()
	cache := c.caches[key]
	if cache == nil {
		cache = NewCache()
		c.caches[key] = cache
	}
	cache.Add(msg.DomainID, msg.Templates)
	c.mu.Unlock()

	c.stats.Messages.Add(1)
	dataRecords, unknownSets := 0, 0
	for len(sets) > 0 {
		var setID uint16
		var payload []byte
		setID, payload, sets, _ = nextSet(sets) // framing validated by scanMessage
		if setID < MinDataSetID {
			continue
		}
		c.mu.RLock()
		tmpl, ok := cache.Lookup(msg.DomainID, setID)
		c.mu.RUnlock()
		if !ok {
			c.stats.UnknownTemplate.Add(1)
			unknownSets++
			continue
		}
		// A set with more than padding behind its last record sinks nothing.
		recLen, n, err := tmpl.split(payload)
		if err != nil {
			c.stats.Malformed.Add(1)
			continue
		}
		// Skipped records still occupied sequence numbers on the exporter.
		dataRecords += n
		before := sunk
		for i := 0; i < n; i++ {
			if rec, ok := decodeOne(&msg, tmpl, payload[i*recLen:(i+1)*recLen], router); ok {
				c.sink(rec)
				sunk++
			}
		}
		c.stats.SkippedRecords.Add(uint64(n - (sunk - before)))
	}
	if c.health != nil {
		c.health.ObserveIPFIX(router, msg.DomainID, msg.Sequence, dataRecords, len(msg.Templates), unknownSets, msg.ExportTime)
	}
}
