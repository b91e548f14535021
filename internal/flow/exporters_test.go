package flow_test

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/ipfix"
	"ipd/internal/netflow"
)

func TestExportersPortEntryWins(t *testing.T) {
	x := flow.NewExporters()
	addr := netip.MustParseAddr("192.0.2.1")
	x.RegisterExporter(addr, 1)
	x.RegisterExporterPort(netip.AddrPortFrom(addr, 9000), 2)
	for _, c := range []struct {
		src    netip.AddrPort
		router flow.RouterID
		key    netip.AddrPort
	}{
		{netip.AddrPortFrom(addr, 9000), 2, netip.AddrPortFrom(addr, 9000)},
		{netip.AddrPortFrom(addr, 9001), 1, netip.AddrPortFrom(addr, 0)},
		// A 4-in-6 source is its IPv4 exporter.
		{netip.AddrPortFrom(netip.AddrFrom16(addr.As16()), 9000), 2, netip.AddrPortFrom(addr, 9000)},
	} {
		router, key, ok := x.Attribute(c.src)
		if !ok || router != c.router || key != c.key {
			t.Errorf("Attribute(%v) = %d, %v, %v; want %d, %v, true", c.src, router, key, ok, c.router, c.key)
		}
	}
	if _, _, ok := x.Attribute(netip.MustParseAddrPort("192.0.2.2:9000")); ok {
		t.Error("unregistered source attributed without a policy")
	}
	if x.Len() != 2 {
		t.Errorf("Len = %d, want 2", x.Len())
	}
}

// TestSharedExportersAcrossProtocols pins the one-registry wiring of a
// collector that takes both protocols: with an unknown-exporter policy, a
// NetFlow v5 datagram and an IPFIX message from the same unregistered
// address are both attributed, to the same router, and neither collector
// counts an unknown exporter.
func TestSharedExportersAcrossProtocols(t *testing.T) {
	var got []flow.Record
	sink := func(r flow.Record) { got = append(got, r) }
	nf, err := netflow.NewCollector(sink)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ipfix.NewCollector(sink)
	if err != nil {
		t.Fatal(err)
	}
	ix.Exporters = nf.Exporters
	next := flow.RouterID(7)
	nf.SetUnknownPolicy(func(netip.Addr) (flow.RouterID, bool) {
		id := next
		next++
		return id, true
	})

	ts := time.Unix(1605571200, 0).UTC()
	rec := flow.Record{Ts: ts, Src: netip.MustParseAddr("203.0.113.9"), In: flow.Ingress{Iface: 3}, Bytes: 100, Packets: 1}
	v5rec, err := netflow.FromFlow(rec)
	if err != nil {
		t.Fatal(err)
	}
	datagram, err := (&netflow.Datagram{Header: netflow.Header{UnixSecs: uint32(ts.Unix())}, Records: []netflow.Record{v5rec}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	mb := ipfix.NewMessageBuilder(1)
	tmpl, err := mb.TemplateMessage(uint32(ts.Unix()), ipfix.DefaultTemplateV4)
	if err != nil {
		t.Fatal(err)
	}
	data, err := mb.DataMessage(uint32(ts.Unix()), ipfix.DefaultTemplateV4, []flow.Record{rec})
	if err != nil {
		t.Fatal(err)
	}

	addr := netip.MustParseAddr("198.51.100.1")
	nf.HandleDatagram(datagram, netip.AddrPortFrom(addr, 50000))
	ix.HandleMessageFrom(tmpl, netip.AddrPortFrom(addr, 50001))
	ix.HandleMessageFrom(data, netip.AddrPortFrom(addr, 50001))

	if len(got) != 2 {
		t.Fatalf("sank %d records, want 2 (one per protocol)", len(got))
	}
	for i, r := range got {
		if r.In.Router != 7 {
			t.Errorf("record %d attributed to router %d, want 7 for both protocols", i, r.In.Router)
		}
	}
	if u := nf.Stats().UnknownExporter.Load() + ix.Stats().UnknownExporter.Load(); u != 0 {
		t.Errorf("unknown exporters counted: %d", u)
	}
	if ix.Exporters.Len() != 1 {
		t.Errorf("registry holds %d exporters, want 1", ix.Exporters.Len())
	}
}

// TestExportersConcurrentUnknownPolicy races several receive loops on the
// same unknown addresses: the write-lock re-check must give every caller of
// one address the same router, however many ids the policy minted.
func TestExportersConcurrentUnknownPolicy(t *testing.T) {
	x := flow.NewExporters()
	var mu sync.Mutex
	next := flow.RouterID(1)
	x.SetUnknownPolicy(func(netip.Addr) (flow.RouterID, bool) {
		mu.Lock()
		defer mu.Unlock()
		next++
		return next, true
	})
	const loops, addrs = 4, 64
	got := make([][addrs]flow.RouterID, loops)
	var wg sync.WaitGroup
	for l := 0; l < loops; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := 0; i < addrs; i++ {
				src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), uint16(2055+l))
				router, _, ok := x.Attribute(src)
				if !ok {
					t.Errorf("loop %d: %v refused", l, src)
				}
				got[l][i] = router
			}
		}(l)
	}
	wg.Wait()
	for l := 1; l < loops; l++ {
		if got[l] != got[0] {
			t.Fatalf("loop %d attributed %v, loop 0 %v", l, got[l], got[0])
		}
	}
	if x.Len() != addrs {
		t.Errorf("Len = %d, want %d", x.Len(), addrs)
	}
}
