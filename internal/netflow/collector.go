package netflow

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
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
	mu        sync.RWMutex
	exporters map[netip.Addr]flow.RouterID
	// portExporters keys on the full source (addr, port) — needed when
	// several exporters share one address (lab setups on loopback, NAT).
	portExporters map[netip.AddrPort]flow.RouterID
	onUnknown     func(netip.Addr) (flow.RouterID, bool)

	sink   func(flow.Record)
	health HealthObserver
	stats  CollectorStats

	conn *net.UDPConn
}

// NewCollector returns a collector delivering records to sink (called from
// the receive loop; it must be fast or hand off to a channel).
func NewCollector(sink func(flow.Record)) (*Collector, error) {
	if sink == nil {
		return nil, fmt.Errorf("netflow: sink must not be nil")
	}
	return &Collector{
		exporters:     make(map[netip.Addr]flow.RouterID),
		portExporters: make(map[netip.AddrPort]flow.RouterID),
		sink:          sink,
	}, nil
}

// RegisterExporter maps a router's export source address to its RouterID.
// Datagrams from unregistered addresses are counted and dropped (production
// collectors must not trust unknown senders).
func (c *Collector) RegisterExporter(addr netip.Addr, router flow.RouterID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exporters[addr.Unmap()] = router
}

// RegisterExporterPort maps a full (address, port) export source to a
// RouterID; it takes precedence over address-level registrations. Use it
// when several exporters share one source address.
func (c *Collector) RegisterExporterPort(src netip.AddrPort, router flow.RouterID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.portExporters[netip.AddrPortFrom(src.Addr().Unmap(), src.Port())] = router
}

// SetUnknownPolicy installs a callback deciding whether (and as which
// router) to auto-register a previously unknown exporter address. Without a
// policy, unknown exporters are counted and dropped.
func (c *Collector) SetUnknownPolicy(fn func(netip.Addr) (flow.RouterID, bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onUnknown = fn
}

// Exporters returns the number of registered exporters (address- plus
// port-level registrations).
func (c *Collector) Exporters() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.exporters) + len(c.portExporters)
}

// SetHealth attaches a health observer fed once per accepted datagram.
// Call before Serve.
func (c *Collector) SetHealth(h HealthObserver) { c.health = h }

// Stats returns the live counters.
func (c *Collector) Stats() *CollectorStats { return &c.stats }

// Listen binds the UDP socket. addr is like ":2055" or "127.0.0.1:0".
// It returns the bound address (useful with port 0).
func (c *Collector) Listen(addr string) (netip.AddrPort, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	c.conn = conn
	return conn.LocalAddr().(*net.UDPAddr).AddrPort(), nil
}

// Serve reads datagrams until ctx is cancelled or the socket fails. Listen
// must have been called. Serve returns nil after a cancellation-triggered
// close.
func (c *Collector) Serve(ctx context.Context) error {
	if c.conn == nil {
		return fmt.Errorf("netflow: Serve before Listen")
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			c.conn.Close()
		case <-done:
		}
	}()

	buf := make([]byte, MaxDatagramLen)
	for {
		n, remote, err := c.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c.HandleDatagram(buf[:n], remote)
	}
}

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
	fromAddr := from.Addr().Unmap()
	c.mu.RLock()
	router, ok := c.portExporters[netip.AddrPortFrom(fromAddr, from.Port())]
	if !ok {
		router, ok = c.exporters[fromAddr]
	}
	policy := c.onUnknown
	c.mu.RUnlock()
	if !ok && policy != nil {
		if r, accept := policy(fromAddr); accept {
			c.mu.Lock()
			// Re-check under the write lock (concurrent datagrams).
			if existing, dup := c.exporters[fromAddr]; dup {
				r = existing
			} else {
				c.exporters[fromAddr] = r
			}
			c.mu.Unlock()
			router, ok = r, true
		}
	}
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

// Exporter is a minimal v5 export client: it batches records into
// datagrams and sends them over UDP. Used by tests and the demo tooling to
// stand in for a border router.
type Exporter struct {
	conn     *net.UDPConn
	router   flow.RouterID
	sequence uint32
	pending  []Record
	pendingT Header
}

// NewExporter dials the collector at addr on behalf of the given router.
func NewExporter(addr string, router flow.RouterID) (*Exporter, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, err
	}
	return &Exporter{conn: conn, router: router}, nil
}

// Send converts and buffers a record, flushing a datagram when full.
func (e *Exporter) Send(rec flow.Record) error {
	r, err := FromFlow(rec)
	if err != nil {
		return err
	}
	if len(e.pending) == 0 {
		e.pendingT = Header{
			UnixSecs:  uint32(rec.Ts.Unix()),
			UnixNsecs: uint32(rec.Ts.Nanosecond()),
		}
	}
	e.pending = append(e.pending, r)
	if len(e.pending) >= MaxRecords {
		return e.Flush()
	}
	return nil
}

// Flush sends any buffered records as one datagram.
func (e *Exporter) Flush() error {
	if len(e.pending) == 0 {
		return nil
	}
	h := e.pendingT
	h.FlowSequence = e.sequence
	d := Datagram{Header: h, Records: e.pending}
	b, err := d.Encode()
	if err != nil {
		return err
	}
	if _, err := e.conn.Write(b); err != nil {
		return err
	}
	e.sequence += uint32(len(e.pending))
	e.pending = e.pending[:0]
	return nil
}

// Close flushes and closes the socket.
func (e *Exporter) Close() error {
	ferr := e.Flush()
	cerr := e.conn.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// LocalAddr returns the exporter's UDP source address.
func (e *Exporter) LocalAddr() netip.Addr {
	return e.LocalAddrPort().Addr()
}

// LocalAddrPort returns the exporter's full UDP source (register this with
// RegisterExporterPort when several exporters share an address).
func (e *Exporter) LocalAddrPort() netip.AddrPort {
	return e.conn.LocalAddr().(*net.UDPAddr).AddrPort()
}
