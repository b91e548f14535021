package netflow

import (
	"context"
	"encoding/binary"
	"net"
	"net/netip"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ipd/internal/flow"
)

func sampleRecord() Record {
	return Record{
		SrcAddr:  netip.MustParseAddr("203.0.113.9"),
		DstAddr:  netip.MustParseAddr("198.51.100.7"),
		NextHop:  netip.MustParseAddr("10.0.0.1"),
		Input:    3,
		Output:   12,
		Packets:  100,
		Octets:   142000,
		First:    1000,
		Last:     2000,
		SrcPort:  443,
		DstPort:  52100,
		TCPFlags: 0x18,
		Proto:    6,
		Tos:      0,
		SrcAS:    64500,
		DstAS:    64501,
		SrcMask:  24,
		DstMask:  22,
	}
}

func sampleHeader() Header {
	return Header{
		SysUptime:        360000,
		UnixSecs:         1605571200,
		UnixNsecs:        500,
		FlowSequence:     42,
		EngineType:       1,
		EngineID:         7,
		SamplingInterval: 1000,
	}
}

func TestEncodeWireLayout(t *testing.T) {
	d := Datagram{Header: sampleHeader(), Records: []Record{sampleRecord()}}
	b, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != HeaderLen+RecordLen {
		t.Fatalf("len = %d", len(b))
	}
	// Spot-check the RFC-documented field offsets.
	if binary.BigEndian.Uint16(b[0:]) != 5 {
		t.Error("version field")
	}
	if binary.BigEndian.Uint16(b[2:]) != 1 {
		t.Error("count field")
	}
	if binary.BigEndian.Uint32(b[8:]) != 1605571200 {
		t.Error("unix_secs field")
	}
	if b[24] != 203 || b[25] != 0 || b[26] != 113 || b[27] != 9 {
		t.Error("srcaddr at offset 24")
	}
	if binary.BigEndian.Uint16(b[36:]) != 3 {
		t.Error("input iface at offset 36")
	}
	if b[62] != 6 {
		t.Error("proto at offset 62")
	}
}

func TestRoundTrip(t *testing.T) {
	d := Datagram{Header: sampleHeader(), Records: []Record{sampleRecord(), sampleRecord()}}
	d.Records[1].SrcAddr = netip.MustParseAddr("192.0.2.1")
	d.Header.Count = 2
	b, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != d.Header {
		t.Errorf("header: %+v vs %+v", got.Header, d.Header)
	}
	if len(got.Records) != 2 {
		t.Fatalf("records = %d", len(got.Records))
	}
	for i := range got.Records {
		if got.Records[i] != d.Records[i] {
			t.Errorf("record %d: %+v vs %+v", i, got.Records[i], d.Records[i])
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(src, dst [4]byte, input, srcPort uint16, pkts, octets uint32, proto uint8) bool {
		r := Record{
			SrcAddr: netip.AddrFrom4(src),
			DstAddr: netip.AddrFrom4(dst),
			NextHop: netip.AddrFrom4([4]byte{}),
			Input:   input, SrcPort: srcPort,
			Packets: pkts, Octets: octets, Proto: proto,
		}
		d := Datagram{Header: sampleHeader(), Records: []Record{r}}
		d.Header.Count = 1
		b, err := d.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return got.Records[0] == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeValidation(t *testing.T) {
	d := Datagram{Header: sampleHeader()}
	if _, err := d.Encode(); err == nil {
		t.Error("empty datagram should fail")
	}
	d.Records = make([]Record, MaxRecords+1)
	if _, err := d.Encode(); err == nil {
		t.Error("oversized datagram should fail")
	}
	d.Records = []Record{sampleRecord()}
	d.Header.Count = 5
	if _, err := d.Encode(); err == nil {
		t.Error("count mismatch should fail")
	}
	d.Header.Count = 0
	d.Records[0].SrcAddr = netip.MustParseAddr("2001:db8::1")
	if _, err := d.Encode(); err == nil {
		t.Error("IPv6 source should fail in v5")
	}
}

func TestDecodeValidation(t *testing.T) {
	good, err := (&Datagram{Header: sampleHeader(), Records: []Record{sampleRecord()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short":          good[:10],
		"truncated body": good[:HeaderLen+10],
		"bad version":    append([]byte{0, 9}, good[2:]...),
	}
	zeroCount := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(zeroCount[2:], 0)
	cases["zero count"] = zeroCount
	bigCount := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(bigCount[2:], 31)
	cases["count over max"] = bigCount
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
}

func TestToFlowFromFlow(t *testing.T) {
	h := sampleHeader()
	r := sampleRecord()
	rec := ToFlow(h, r, 77)
	if rec.Src != r.SrcAddr || rec.Dst != r.DstAddr {
		t.Errorf("addrs: %+v", rec)
	}
	if rec.In != (flow.Ingress{Router: 77, Iface: 3}) {
		t.Errorf("ingress = %v", rec.In)
	}
	if !rec.Ts.Equal(h.ExportTime()) || rec.Bytes != r.Octets || rec.Packets != r.Packets {
		t.Errorf("fields: %+v", rec)
	}
	back, err := FromFlow(rec)
	if err != nil {
		t.Fatal(err)
	}
	if back.SrcAddr != r.SrcAddr || back.Input != r.Input || back.Octets != r.Octets {
		t.Errorf("FromFlow = %+v", back)
	}
	if _, err := FromFlow(flow.Record{Ts: time.Now(), Src: netip.MustParseAddr("2001:db8::1")}); err == nil {
		t.Error("IPv6 FromFlow should fail")
	}
	// Missing destination encodes as the zero address.
	back, err = FromFlow(flow.Record{Ts: time.Now(), Src: netip.MustParseAddr("1.2.3.4")})
	if err != nil || back.DstAddr != netip.AddrFrom4([4]byte{}) {
		t.Errorf("no-dst FromFlow = %+v err=%v", back, err)
	}
}

func TestCollectorEndToEnd(t *testing.T) {
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

	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addrPort))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c.RegisterExporter(conn.LocalAddr().(*net.UDPAddr).AddrPort().Addr(), 9)
	if c.Exporters.Len() != 1 {
		t.Fatal("exporter not registered")
	}

	ts := time.Unix(1605571200, 0).UTC()
	var pending []Record
	send := func() {
		d := Datagram{Header: Header{UnixSecs: uint32(ts.Unix())}, Records: pending}
		b, err := d.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		pending = pending[:0]
	}
	for i := 0; i < 65; i++ { // crosses two 30-record datagram boundaries
		a := netip.MustParseAddr("198.51.100.0").As4()
		a[3] = byte(i)
		r, err := FromFlow(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: flow.Ingress{Router: 9, Iface: 4}, Bytes: 100, Packets: 1})
		if err != nil {
			t.Fatal(err)
		}
		if pending = append(pending, r); len(pending) == MaxRecords {
			send()
		}
	}
	send()

	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 65 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("received %d/65 records", n)
		case <-time.After(10 * time.Millisecond):
		}
	}
	mu.Lock()
	first := got[0]
	mu.Unlock()
	if first.In != (flow.Ingress{Router: 9, Iface: 4}) {
		t.Errorf("ingress = %v", first.In)
	}
	if !first.Ts.Equal(ts) {
		t.Errorf("ts = %v", first.Ts)
	}
	if c.Stats().Records.Load() != 65 || c.Stats().Datagrams.Load() != 3 {
		t.Errorf("stats: %d records, %d datagrams",
			c.Stats().Records.Load(), c.Stats().Datagrams.Load())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not stop")
	}
}

func TestCollectorRejectsUnknownAndMalformed(t *testing.T) {
	c, err := NewCollector(func(flow.Record) { t.Error("sink must not be called") })
	if err != nil {
		t.Fatal(err)
	}
	// Unknown exporter.
	good, err := (&Datagram{Header: sampleHeader(), Records: []Record{sampleRecord()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	c.HandleDatagram(good, netip.AddrPortFrom(netip.MustParseAddr("192.0.2.200"), 2055))
	if c.Stats().UnknownExporter.Load() != 1 {
		t.Error("unknown exporter not counted")
	}
	// Malformed datagram from a known exporter.
	c.RegisterExporter(netip.MustParseAddr("192.0.2.200"), 1)
	c.HandleDatagram(good[:30], netip.AddrPortFrom(netip.MustParseAddr("192.0.2.200"), 2055))
	if c.Stats().Malformed.Load() != 1 {
		t.Error("malformed not counted")
	}
	if c.Stats().Records.Load() != 0 {
		t.Error("no records should have been delivered")
	}
}

func TestCollectorValidation(t *testing.T) {
	if _, err := NewCollector(nil); err == nil {
		t.Error("nil sink should fail")
	}
	c, _ := NewCollector(func(flow.Record) {})
	if err := c.Serve(context.Background()); err == nil {
		t.Error("Serve before Listen should fail")
	}
	if _, err := c.Listen("not-an-addr:xyz"); err == nil {
		t.Error("bad listen addr should fail")
	}
}

func BenchmarkDecode(b *testing.B) {
	recs := make([]Record, MaxRecords)
	for i := range recs {
		recs[i] = sampleRecord()
	}
	d := Datagram{Header: sampleHeader(), Records: recs}
	d.Header.Count = MaxRecords
	buf, err := d.Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCollectorUnknownPolicy(t *testing.T) {
	var got []flow.Record
	c, err := NewCollector(func(r flow.Record) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	next := flow.RouterID(10)
	c.SetUnknownPolicy(func(addr netip.Addr) (flow.RouterID, bool) {
		if addr == netip.MustParseAddr("192.0.2.66") {
			return 0, false // explicitly refused
		}
		id := next
		next++
		return id, true
	})
	good, err := (&Datagram{Header: sampleHeader(), Records: []Record{sampleRecord()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// First unknown exporter: auto-registered as router 10.
	c.HandleDatagram(good, netip.AddrPortFrom(netip.MustParseAddr("192.0.2.50"), 2055))
	// Same exporter again: reuses the registration, no new ID.
	c.HandleDatagram(good, netip.AddrPortFrom(netip.MustParseAddr("192.0.2.50"), 2055))
	// Refused exporter: dropped.
	c.HandleDatagram(good, netip.AddrPortFrom(netip.MustParseAddr("192.0.2.66"), 2055))
	if len(got) != 2 {
		t.Fatalf("records = %d, want 2", len(got))
	}
	for _, r := range got {
		if r.In.Router != 10 {
			t.Errorf("router = %d, want 10", r.In.Router)
		}
	}
	if c.Stats().UnknownExporter.Load() != 1 {
		t.Errorf("unknown counter = %d", c.Stats().UnknownExporter.Load())
	}
	if c.Exporters.Len() != 1 {
		t.Errorf("exporters = %d", c.Exporters.Len())
	}
}

// TestCollectorContainsSinkPanic pins the receive-loop containment: a panic
// out of the sink (or decoder) must not escape HandleDatagram — the datagram
// is abandoned, counted in Stats().Panics, and the next one flows normally.
func TestCollectorContainsSinkPanic(t *testing.T) {
	calls := 0
	c, err := NewCollector(func(flow.Record) {
		calls++
		if calls == 1 || calls == 5 {
			panic("poisoned record")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("192.0.2.7")
	c.RegisterExporter(src, 1)
	good, err := (&Datagram{Header: sampleHeader(), Records: []Record{sampleRecord()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	from := netip.AddrPortFrom(src, 2055)
	c.HandleDatagram(good, from) // sink panics: contained
	if got := c.Stats().Panics.Load(); got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
	c.HandleDatagram(good, from) // collector still serves
	if calls != 2 {
		t.Errorf("sink calls = %d, want 2 (loop survived the panic)", calls)
	}
	if got := c.Stats().Panics.Load(); got != 1 {
		t.Errorf("Panics = %d after healthy datagram, want still 1", got)
	}
	// Records is booked once per datagram and counts what the sink took:
	// nothing from the poisoned datagram, one from the healthy one, and the
	// two delivered before the third record of the next one panics.
	if got := c.Stats().Records.Load(); got != 1 {
		t.Errorf("Records = %d, want 1", got)
	}
	three, err := (&Datagram{Header: sampleHeader(), Records: []Record{sampleRecord(), sampleRecord(), sampleRecord()}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	c.HandleDatagram(three, from)
	if got, p := c.Stats().Records.Load(), c.Stats().Panics.Load(); got != 3 || p != 2 {
		t.Errorf("Records = %d, Panics = %d after a datagram poisoned at its third record, want 3 and 2", got, p)
	}
}
