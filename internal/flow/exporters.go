package flow

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
)

// Exporters attributes export datagrams to border routers by their UDP
// source — the identity of the exporting router is not in a NetFlow v5
// datagram, and an IPFIX observation domain is only unique per exporter.
// Address entries cover every port of an address; (address, port) entries
// tell apart exporters that share one address (lab setups on loopback, NAT)
// and win over the address entry. Sources matching neither are unknown:
// collectors count and drop them unless an unknown-exporter policy
// registers them. Safe for concurrent use; one registry may serve several
// collectors, so an address is one router across protocols.
type Exporters struct {
	mu        sync.RWMutex
	addrs     map[netip.Addr]RouterID
	ports     map[netip.AddrPort]RouterID
	onUnknown func(netip.Addr) (RouterID, bool)
}

// NewExporters returns an empty registry without an unknown-exporter policy.
func NewExporters() *Exporters {
	return &Exporters{
		addrs: make(map[netip.Addr]RouterID),
		ports: make(map[netip.AddrPort]RouterID),
	}
}

// RegisterExporter maps a router's export source address to its RouterID.
// Datagrams from unregistered addresses are counted and dropped (production
// collectors must not trust unknown senders).
func (x *Exporters) RegisterExporter(addr netip.Addr, router RouterID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.addrs[addr.Unmap()] = router
}

// RegisterExporterPort maps a full (address, port) export source to a
// RouterID; it takes precedence over address-level registrations. Use it
// when several exporters share one source address.
func (x *Exporters) RegisterExporterPort(src netip.AddrPort, router RouterID) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ports[unmapPort(src)] = router
}

// SetUnknownPolicy installs a callback deciding whether (and as which
// router) to auto-register a previously unknown exporter address. Without a
// policy, unknown exporters are counted and dropped.
func (x *Exporters) SetUnknownPolicy(fn func(netip.Addr) (RouterID, bool)) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.onUnknown = fn
}

// Len returns the number of registrations (address- plus port-level).
func (x *Exporters) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.addrs) + len(x.ports)
}

// Attribute returns the router exporting from src and the registration that
// matched: src itself for a port entry, src's address with port 0 for an
// address entry, including one the unknown-exporter policy makes here. ok is
// false for an unknown exporter.
func (x *Exporters) Attribute(src netip.AddrPort) (router RouterID, key netip.AddrPort, ok bool) {
	src = unmapPort(src)
	key = netip.AddrPortFrom(src.Addr(), 0)
	x.mu.RLock()
	if router, ok = x.ports[src]; ok {
		x.mu.RUnlock()
		return router, src, true
	}
	router, ok = x.addrs[src.Addr()]
	policy := x.onUnknown
	x.mu.RUnlock()
	if ok || policy == nil {
		return router, key, ok
	}
	r, accept := policy(src.Addr())
	if !accept {
		return 0, key, false
	}
	x.mu.Lock()
	// Re-check under the write lock (concurrent datagrams).
	if existing, dup := x.addrs[src.Addr()]; dup {
		r = existing
	} else {
		x.addrs[src.Addr()] = r
	}
	x.mu.Unlock()
	return r, key, true
}

func unmapPort(src netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(src.Addr().Unmap(), src.Port())
}

// Socket is the UDP receive loop of the wire collectors: Listen binds, and
// Serve hands every datagram with its full source to a handler.
type Socket struct {
	conn *net.UDPConn
}

// Listen binds the UDP socket. addr is like ":2055" or "127.0.0.1:0".
// It returns the bound address (useful with port 0).
func (s *Socket) Listen(addr string) (netip.AddrPort, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	s.conn = conn
	return conn.LocalAddr().(*net.UDPAddr).AddrPort(), nil
}

// Serve reads datagrams until ctx is cancelled or the socket fails, calling
// handle for each from this goroutine; b is only valid during the call.
// Listen must have been called. Serve returns nil after a
// cancellation-triggered close.
func (s *Socket) Serve(ctx context.Context, handle func(b []byte, from netip.AddrPort)) error {
	if s.conn == nil {
		return fmt.Errorf("flow: Serve before Listen")
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			s.conn.Close()
		case <-done:
		}
	}()
	buf := make([]byte, 1<<16) // the largest UDP payload
	for {
		n, remote, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		handle(buf[:n], remote)
	}
}
