package ipfix

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ipd/internal/flow"
)

func TestCollectorValidation(t *testing.T) {
	if _, err := NewCollector(nil); err == nil {
		t.Error("nil sink should fail")
	}
	c, _ := NewCollector(func(flow.Record) {})
	if err := c.Serve(context.Background()); err == nil {
		t.Error("Serve before Listen should fail")
	}
	if _, err := c.Listen("bogus:addr:here"); err == nil {
		t.Error("bad addr should fail")
	}
}

func TestCollectorEndToEndUDP(t *testing.T) {
	var mu sync.Mutex
	var got []flow.Record
	c, err := NewCollector(func(r flow.Record) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	addrPort, err := c.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.Serve(ctx) }()

	conn, err := net.Dial("udp", addrPort.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	local := conn.LocalAddr().(*net.UDPAddr).AddrPort().Addr()
	c.RegisterExporter(local, 12)

	mb := NewMessageBuilder(5)
	tmplMsg, err := mb.TemplateMessage(exportTime, DefaultTemplateV4, DefaultTemplateV6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(tmplMsg); err != nil {
		t.Fatal(err)
	}
	v4Msg, err := mb.DataMessage(exportTime, DefaultTemplateV4, []flow.Record{v4Record(1), v4Record(2)})
	if err != nil {
		t.Fatal(err)
	}
	v6Msg, err := mb.DataMessage(exportTime, DefaultTemplateV6, []flow.Record{v6Record(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Small sleep between datagrams is unnecessary; UDP loopback preserves
	// them, but templates must arrive first, so write in order.
	if _, err := conn.Write(v4Msg); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(v6Msg); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("received %d/3 records", n)
		case <-time.After(10 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].In.Router != 12 {
		t.Errorf("router = %d", got[0].In.Router)
	}
	sawV6 := false
	for _, r := range got {
		if r.IsIPv6() {
			sawV6 = true
		}
	}
	if !sawV6 {
		t.Error("no IPv6 record made it through")
	}
	if c.Stats().Messages.Load() != 3 {
		t.Errorf("messages = %d", c.Stats().Messages.Load())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCollectorDataBeforeTemplateDropped(t *testing.T) {
	c, _ := NewCollector(func(flow.Record) { t.Error("sink must not be called") })
	src := netip.MustParseAddr("192.0.2.9")
	c.RegisterExporter(src, 1)
	mb := NewMessageBuilder(1)
	dataMsg, err := mb.DataMessage(exportTime, DefaultTemplateV4, []flow.Record{v4Record(1)})
	if err != nil {
		t.Fatal(err)
	}
	c.HandleMessage(dataMsg, src)
	if c.Stats().UnknownTemplate.Load() != 1 {
		t.Errorf("unknown-template = %d", c.Stats().UnknownTemplate.Load())
	}
}

func TestCollectorUnknownExporterAndMalformed(t *testing.T) {
	c, _ := NewCollector(func(flow.Record) { t.Error("sink must not be called") })
	mb := NewMessageBuilder(1)
	msg, _ := mb.TemplateMessage(exportTime, DefaultTemplateV4)
	c.HandleMessage(msg, netip.MustParseAddr("192.0.2.1"))
	if c.Stats().UnknownExporter.Load() != 1 {
		t.Error("unknown exporter not counted")
	}
	c.RegisterExporter(netip.MustParseAddr("192.0.2.1"), 1)
	c.HandleMessage(msg[:7], netip.MustParseAddr("192.0.2.1"))
	if c.Stats().Malformed.Load() != 1 {
		t.Error("malformed not counted")
	}
}

// TestCollectorContainsSinkPanic pins the receive-loop containment: a panic
// out of the sink (or decoder) must not escape HandleMessage — the message
// is abandoned, counted in Stats().Panics, and the next one flows normally.
func TestCollectorContainsSinkPanic(t *testing.T) {
	calls := 0
	c, _ := NewCollector(func(flow.Record) {
		calls++
		if calls == 1 {
			panic("poisoned record")
		}
	})
	src := netip.MustParseAddr("192.0.2.9")
	c.RegisterExporter(src, 1)
	mb := NewMessageBuilder(1)
	tmplMsg, err := mb.TemplateMessage(exportTime, DefaultTemplateV4)
	if err != nil {
		t.Fatal(err)
	}
	c.HandleMessage(tmplMsg, src)
	dataMsg, err := mb.DataMessage(exportTime, DefaultTemplateV4, []flow.Record{v4Record(1)})
	if err != nil {
		t.Fatal(err)
	}
	c.HandleMessage(dataMsg, src) // sink panics: contained
	if got := c.Stats().Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	c.HandleMessage(dataMsg, src) // collector still serves
	if calls != 2 {
		t.Errorf("sink calls = %d, want 2 (loop survived the panic)", calls)
	}
	// Records is booked once per message and counts what the sink took.
	if got := c.Stats().Records.Load(); got != 1 {
		t.Errorf("Records = %d, want 1 (nothing from the poisoned message)", got)
	}
}

// TestCollectorPortExportersKeepOwnTemplates pins attribution by full
// source: two exporters behind one address, registered per port, announce
// different layouts under the same domain and template id, and each one's
// data decodes with its own template.
func TestCollectorPortExportersKeepOwnTemplates(t *testing.T) {
	var got []flow.Record
	c, _ := NewCollector(func(r flow.Record) { got = append(got, r) })
	addr := netip.MustParseAddr("192.0.2.9")
	// Same id 256 with source and destination swapped: decoding one
	// exporter's data with the other's template swaps the addresses.
	swapped := DefaultTemplateV4
	swapped.Fields = append([]FieldSpec{swapped.Fields[1], swapped.Fields[0]}, swapped.Fields[2:]...)
	exporters := []struct {
		src    netip.AddrPort
		router flow.RouterID
		tmpl   Template
		rec    flow.Record
	}{
		{netip.AddrPortFrom(addr, 4001), 1, DefaultTemplateV4, v4Record(1)},
		{netip.AddrPortFrom(addr, 4002), 2, swapped, v4Record(2)},
	}
	for _, x := range exporters {
		c.RegisterExporterPort(x.src, x.router)
		msg, err := NewMessageBuilder(5).TemplateMessage(exportTime, x.tmpl)
		if err != nil {
			t.Fatal(err)
		}
		c.HandleMessageFrom(msg, x.src)
	}
	for _, x := range exporters {
		msg, err := NewMessageBuilder(5).DataMessage(exportTime, x.tmpl, []flow.Record{x.rec})
		if err != nil {
			t.Fatal(err)
		}
		c.HandleMessageFrom(msg, x.src)
	}
	if len(got) != len(exporters) {
		t.Fatalf("decoded %d records, want %d", len(got), len(exporters))
	}
	for i, x := range exporters {
		if got[i].In.Router != x.router || got[i].Src != x.rec.Src || got[i].Dst != x.rec.Dst {
			t.Errorf("record %d = router %d, %v -> %v; want router %d, %v -> %v",
				i, got[i].In.Router, got[i].Src, got[i].Dst, x.router, x.rec.Src, x.rec.Dst)
		}
	}
}
