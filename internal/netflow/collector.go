package netflow

import (
	"context"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"ipd/internal/flow"
)

// HealthObserver receives per-datagram transport-header accounting that
// the record sink cannot see: the v5 FlowSequence counter (counts the
// flows the exporter sent before this datagram), the export timestamp,
// and the sampling-interval field. Called once per accepted datagram,
// after exporter attribution, from the receive goroutine —
// implementations must be fast and must not block.
type HealthObserver interface {
	ObserveNetFlow(router flow.RouterID, seq uint32, records int, exportTime time.Time, sampling uint16)
}

// CollectorStats counts collector activity (all fields are cumulative and
// safe to read concurrently).
type CollectorStats struct {
	Datagrams       atomic.Uint64
	Records         atomic.Uint64
	Malformed       atomic.Uint64
	UnknownExporter atomic.Uint64
	// Panics counts datagrams whose decode or sink handoff panicked; the
	// receive loop recovers and keeps serving (the datagram is abandoned).
	Panics atomic.Uint64
}

// Collector receives NetFlow v5 datagrams over UDP, attributes them to
// border routers via the exporter registry, and hands flow records to a
// sink. It is the head of the deployment pipeline of §5.7 (flow readers in
// front of the single IPD process).
type Collector struct {
	// Exporters attributes datagrams to routers. Assign another collector's
	// registry before serving to share one attribution across protocols.
	*flow.Exporters

	sink   func(flow.Record)
	health HealthObserver
	stats  CollectorStats
	sock   flow.Socket
}

// NewCollector returns a collector delivering records to sink (called from
// the receive loop; it must be fast or hand off to a queue).
func NewCollector(sink func(flow.Record)) (*Collector, error) {
	if sink == nil {
		return nil, fmt.Errorf("netflow: sink must not be nil")
	}
	return &Collector{Exporters: flow.NewExporters(), sink: sink}, nil
}

// SetHealth attaches a health observer fed once per accepted datagram.
// Call before Serve.
func (c *Collector) SetHealth(h HealthObserver) { c.health = h }

// Stats returns the live counters.
func (c *Collector) Stats() *CollectorStats { return &c.stats }

// Listen binds the UDP socket. addr is like ":2055" or "127.0.0.1:0".
// It returns the bound address (useful with port 0).
func (c *Collector) Listen(addr string) (netip.AddrPort, error) { return c.sock.Listen(addr) }

// Serve reads datagrams until ctx is cancelled or the socket fails. Listen
// must have been called. Serve returns nil after a cancellation-triggered
// close.
func (c *Collector) Serve(ctx context.Context) error { return c.sock.Serve(ctx, c.HandleDatagram) }

// HandleDatagram processes one raw datagram attributed to the given source
// (exposed separately so the pipeline can be driven without a socket, e.g.
// from pcap replays or tests). Attribution prefers an exact (addr, port)
// registration, then the source address. A panic while decoding or sinking
// — one adversarial datagram tripping a decoder bug — is contained: the
// datagram is abandoned, Stats().Panics counts it, and the receive loop
// keeps serving.
func (c *Collector) HandleDatagram(b []byte, from netip.AddrPort) {
	sunk := 0 // records the sink returned from, booked once per datagram
	defer func() {
		if recover() != nil {
			c.stats.Panics.Add(1)
		}
		c.stats.Records.Add(uint64(sunk))
	}()
	h, err := parseHeader(b)
	if err != nil {
		c.stats.Malformed.Add(1)
		return
	}
	router, _, ok := c.Attribute(from)
	if !ok {
		c.stats.UnknownExporter.Add(1)
		return
	}
	c.stats.Datagrams.Add(1)
	ts := h.ExportTime()
	if c.health != nil {
		c.health.ObserveNetFlow(router, h.FlowSequence, int(h.Count), ts, h.SamplingInterval)
	}
	// The framing is validated; walk the wire records and sink each by value.
	for off, end := HeaderLen, HeaderLen+int(h.Count)*RecordLen; off < end; off += RecordLen {
		c.sink(decodeFlow(ts, b[off:off+RecordLen], router))
		sunk++
	}
}
