// Package netflow implements the NetFlow version 5 export format and a UDP
// collector, the input path of the paper's deployment (§3.1: "we rely on
// flow-level traces (e.g., Netflow or IPFIX) from all border routers";
// §5.7: the collection server receives live feeds from ≈3,000 routers).
//
// NetFlow v5 is a fixed-layout binary format: a 24-byte header followed by
// up to 30 48-byte flow records per datagram. v5 carries IPv4 only; the
// identity of the exporting router is not in the datagram, so the collector
// maps it from the UDP source address via an exporter registry — exactly
// how production collectors attribute flows to border routers.
package netflow

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"ipd/internal/flow"
)

const (
	// Version is the NetFlow version implemented here.
	Version = 5
	// HeaderLen and RecordLen are the fixed v5 sizes.
	HeaderLen = 24
	RecordLen = 48
	// MaxRecords is the per-datagram record limit of v5.
	MaxRecords = 30
	// MaxDatagramLen is the largest valid v5 datagram.
	MaxDatagramLen = HeaderLen + MaxRecords*RecordLen
)

// Header is the v5 packet header.
type Header struct {
	// Count is the number of records in the datagram (1..30).
	Count uint16
	// SysUptime is the exporter uptime in milliseconds.
	SysUptime uint32
	// UnixSecs/UnixNsecs are the exporter's export timestamp.
	UnixSecs  uint32
	UnixNsecs uint32
	// FlowSequence counts total flows seen by the exporter (for loss
	// accounting).
	FlowSequence uint32
	// EngineType and EngineID identify the flow-switching engine.
	EngineType uint8
	EngineID   uint8
	// SamplingInterval packs a 2-bit mode and a 14-bit packet sampling
	// interval (the 1-out-of-n of §3.1).
	SamplingInterval uint16
}

// ExportTime returns the header's export timestamp.
func (h Header) ExportTime() time.Time {
	return time.Unix(int64(h.UnixSecs), int64(h.UnixNsecs)).UTC()
}

// Record is one v5 flow record.
type Record struct {
	SrcAddr netip.Addr // IPv4
	DstAddr netip.Addr // IPv4
	NextHop netip.Addr // IPv4
	// Input and Output are SNMP interface indices; Input is the ingress
	// interface IPD cares about.
	Input  uint16
	Output uint16
	// Packets and Octets are the flow's (sampled) counters.
	Packets uint32
	Octets  uint32
	// First and Last are sysUptime values at the first/last packet.
	First uint32
	Last  uint32
	// Transport fields.
	SrcPort  uint16
	DstPort  uint16
	TCPFlags uint8
	Proto    uint8
	Tos      uint8
	// Routing metadata.
	SrcAS   uint16
	DstAS   uint16
	SrcMask uint8
	DstMask uint8
}

// Datagram is a parsed v5 export packet.
type Datagram struct {
	Header  Header
	Records []Record
}

// Encode serializes the datagram. It fails if the record count is 0,
// exceeds MaxRecords, or disagrees with Header.Count (0 auto-fills).
func (d *Datagram) Encode() ([]byte, error) {
	n := len(d.Records)
	if n == 0 || n > MaxRecords {
		return nil, fmt.Errorf("netflow: datagram must carry 1..%d records, got %d", MaxRecords, n)
	}
	h := d.Header
	if h.Count == 0 {
		h.Count = uint16(n)
	}
	if int(h.Count) != n {
		return nil, fmt.Errorf("netflow: header count %d != %d records", h.Count, n)
	}
	buf := make([]byte, HeaderLen+n*RecordLen)
	binary.BigEndian.PutUint16(buf[0:], Version)
	binary.BigEndian.PutUint16(buf[2:], h.Count)
	binary.BigEndian.PutUint32(buf[4:], h.SysUptime)
	binary.BigEndian.PutUint32(buf[8:], h.UnixSecs)
	binary.BigEndian.PutUint32(buf[12:], h.UnixNsecs)
	binary.BigEndian.PutUint32(buf[16:], h.FlowSequence)
	buf[20] = h.EngineType
	buf[21] = h.EngineID
	binary.BigEndian.PutUint16(buf[22:], h.SamplingInterval)
	for i, r := range d.Records {
		if err := encodeRecord(buf[HeaderLen+i*RecordLen:], r); err != nil {
			return nil, fmt.Errorf("netflow: record %d: %w", i, err)
		}
	}
	return buf, nil
}

func encodeRecord(b []byte, r Record) error {
	src, ok1 := addr4(r.SrcAddr)
	dst, ok2 := addr4(r.DstAddr)
	nh, ok3 := addr4(r.NextHop)
	if !ok1 || !ok2 || !ok3 {
		return fmt.Errorf("v5 requires IPv4 addresses (src %v, dst %v, nexthop %v)", r.SrcAddr, r.DstAddr, r.NextHop)
	}
	copy(b[0:4], src[:])
	copy(b[4:8], dst[:])
	copy(b[8:12], nh[:])
	binary.BigEndian.PutUint16(b[12:], r.Input)
	binary.BigEndian.PutUint16(b[14:], r.Output)
	binary.BigEndian.PutUint32(b[16:], r.Packets)
	binary.BigEndian.PutUint32(b[20:], r.Octets)
	binary.BigEndian.PutUint32(b[24:], r.First)
	binary.BigEndian.PutUint32(b[28:], r.Last)
	binary.BigEndian.PutUint16(b[32:], r.SrcPort)
	binary.BigEndian.PutUint16(b[34:], r.DstPort)
	b[36] = 0 // pad1
	b[37] = r.TCPFlags
	b[38] = r.Proto
	b[39] = r.Tos
	binary.BigEndian.PutUint16(b[40:], r.SrcAS)
	binary.BigEndian.PutUint16(b[42:], r.DstAS)
	b[44] = r.SrcMask
	b[45] = r.DstMask
	b[46], b[47] = 0, 0 // pad2
	return nil
}

// addr4 returns the 4-byte form of an IPv4 (or 4-in-6, or zero) address.
func addr4(a netip.Addr) ([4]byte, bool) {
	if !a.IsValid() {
		return [4]byte{}, true // zero address (e.g. unset next hop)
	}
	a = a.Unmap()
	if !a.Is4() {
		return [4]byte{}, false
	}
	return a.As4(), true
}

// Decode parses a v5 datagram into freshly allocated structures. The
// collector shares parseHeader and the per-record decoder with it, but reads
// the records in place (HandleDatagram).
func Decode(b []byte) (*Datagram, error) {
	h, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	d := &Datagram{Header: h, Records: make([]Record, h.Count)}
	for i := range d.Records {
		d.Records[i] = decodeRecord(b[HeaderLen+i*RecordLen:])
	}
	return d, nil
}

// parseHeader decodes the header and validates the datagram's framing —
// version, record count, every announced record present — so a caller may
// index the records without further checks.
func parseHeader(b []byte) (h Header, err error) {
	if len(b) < HeaderLen {
		return h, fmt.Errorf("netflow: datagram too short (%d bytes)", len(b))
	}
	if v := binary.BigEndian.Uint16(b[0:]); v != Version {
		return h, fmt.Errorf("netflow: unsupported version %d", v)
	}
	h.Count = binary.BigEndian.Uint16(b[2:])
	h.SysUptime = binary.BigEndian.Uint32(b[4:])
	h.UnixSecs = binary.BigEndian.Uint32(b[8:])
	h.UnixNsecs = binary.BigEndian.Uint32(b[12:])
	h.FlowSequence = binary.BigEndian.Uint32(b[16:])
	h.EngineType = b[20]
	h.EngineID = b[21]
	h.SamplingInterval = binary.BigEndian.Uint16(b[22:])
	if h.Count == 0 || h.Count > MaxRecords {
		return h, fmt.Errorf("netflow: invalid record count %d", h.Count)
	}
	want := HeaderLen + int(h.Count)*RecordLen
	if len(b) < want {
		return h, fmt.Errorf("netflow: truncated datagram: %d bytes, want %d", len(b), want)
	}
	return h, nil
}

// decodeFlow reads the five fields the engine's record model keeps straight
// off one wire record; ts is the datagram's export time.
func decodeFlow(ts time.Time, b []byte, router flow.RouterID) flow.Record {
	return flow.Record{
		Ts:      ts,
		Src:     netip.AddrFrom4([4]byte(b[0:4])),
		Dst:     netip.AddrFrom4([4]byte(b[4:8])),
		In:      flow.Ingress{Router: router, Iface: flow.IfaceID(binary.BigEndian.Uint16(b[12:]))},
		Packets: binary.BigEndian.Uint32(b[16:]),
		Bytes:   binary.BigEndian.Uint32(b[20:]),
	}
}

// decodeRecord is decodeFlow plus the twelve fields only the wire model
// keeps, so each field's position is read in one place.
func decodeRecord(b []byte) Record {
	f := decodeFlow(time.Time{}, b, 0)
	r := Record{SrcAddr: f.Src, DstAddr: f.Dst, Input: uint16(f.In.Iface), Packets: f.Packets, Octets: f.Bytes}
	r.NextHop = netip.AddrFrom4([4]byte(b[8:12]))
	r.Output = binary.BigEndian.Uint16(b[14:])
	r.First = binary.BigEndian.Uint32(b[24:])
	r.Last = binary.BigEndian.Uint32(b[28:])
	r.SrcPort = binary.BigEndian.Uint16(b[32:])
	r.DstPort = binary.BigEndian.Uint16(b[34:])
	r.TCPFlags = b[37]
	r.Proto = b[38]
	r.Tos = b[39]
	r.SrcAS = binary.BigEndian.Uint16(b[40:])
	r.DstAS = binary.BigEndian.Uint16(b[42:])
	r.SrcMask = b[44]
	r.DstMask = b[45]
	return r
}

// ToFlow converts a v5 record exported by router to the engine's record
// model. The timestamp is the export time (the statistical-time stage
// handles exporter clock inaccuracy downstream, §3.1).
func ToFlow(h Header, r Record, router flow.RouterID) flow.Record {
	return flow.Record{
		Ts:      h.ExportTime(),
		Src:     r.SrcAddr,
		Dst:     r.DstAddr,
		In:      flow.Ingress{Router: router, Iface: flow.IfaceID(r.Input)},
		Bytes:   r.Octets,
		Packets: r.Packets,
	}
}

// FromFlow builds a v5 record from the engine's record model (for the test
// exporter and trace conversion).
func FromFlow(rec flow.Record) (Record, error) {
	src := rec.Src.Unmap()
	if !src.Is4() {
		return Record{}, fmt.Errorf("netflow: v5 cannot carry IPv6 source %v", rec.Src)
	}
	out := Record{
		SrcAddr: src,
		Input:   uint16(rec.In.Iface),
		Packets: rec.Packets,
		Octets:  rec.Bytes,
	}
	if rec.Dst.IsValid() && rec.Dst.Unmap().Is4() {
		out.DstAddr = rec.Dst.Unmap()
	} else {
		out.DstAddr = netip.AddrFrom4([4]byte{})
	}
	out.NextHop = netip.AddrFrom4([4]byte{})
	return out, nil
}
