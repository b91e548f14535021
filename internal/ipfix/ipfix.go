// Package ipfix implements the subset of IPFIX (RFC 7011) that the IPD
// input pipeline needs: message framing, template sets, data sets, and a
// per-exporter template cache. The paper's deployment consumes "Netflow or
// IPFIX" (§3.1); unlike NetFlow v5, IPFIX carries IPv6 flows — which IPD
// maps at /48 granularity — so this is the v6-capable input path.
//
// Supported information elements (IANA IPFIX registry):
//
//	sourceIPv4Address(8)       destinationIPv4Address(12)
//	sourceIPv6Address(27)      destinationIPv6Address(28)
//	ingressInterface(10)       octetDeltaCount(1)
//	packetDeltaCount(2)        flowStartMilliseconds(152)
//
// Unknown elements are skipped using the template's field lengths, so
// richer exporter schemas still decode. Variable-length elements (length
// 0xFFFF) are not supported and cause the template to be rejected.
package ipfix

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"time"

	"ipd/internal/flow"
)

// Version is the IPFIX protocol version number.
const Version = 10

// MessageHeaderLen and SetHeaderLen are the RFC 7011 fixed sizes.
const (
	MessageHeaderLen = 16
	SetHeaderLen     = 4
)

// Set IDs.
const (
	// TemplateSetID carries template records.
	TemplateSetID = 2
	// OptionsTemplateSetID carries options templates (skipped).
	OptionsTemplateSetID = 3
	// MinDataSetID is the first valid data-set (= template) ID.
	MinDataSetID = 256
)

// Information element IDs used by the converter.
const (
	IEOctetDeltaCount        = 1
	IEPacketDeltaCount       = 2
	IESourceIPv4Address      = 8
	IEIngressInterface       = 10
	IEDestinationIPv4Address = 12
	IESourceIPv6Address      = 27
	IEDestinationIPv6Address = 28
	IEFlowStartMilliseconds  = 152
)

// FieldSpec is one template field.
type FieldSpec struct {
	// ID is the information element ID (enterprise elements are rejected).
	ID uint16
	// Length is the fixed field length in bytes.
	Length uint16
}

// Template is a parsed template record.
type Template struct {
	ID     uint16
	Fields []FieldSpec
}

// recordLen returns the fixed byte length of one data record.
func (t Template) recordLen() int {
	n := 0
	for _, f := range t.Fields {
		n += int(f.Length)
	}
	return n
}

// Message is a parsed IPFIX message.
type Message struct {
	// ExportTime is the header export timestamp (second granularity).
	ExportTime time.Time
	// Sequence and DomainID are the header counters.
	Sequence uint32
	DomainID uint32
	// Templates are the template records seen in this message.
	Templates []Template
	// DataSets are the raw data sets, to be decoded against the exporter's
	// template cache.
	DataSets []DataSet
}

// DataSet is one undecoded data set.
type DataSet struct {
	TemplateID uint16
	Payload    []byte
}

// DecodeMessage parses one IPFIX message (without resolving data sets; use
// a Cache for that). The collector does not come through here:
// HandleMessage validates with the same scanMessage, then walks the data
// sets in place.
func DecodeMessage(b []byte) (*Message, error) {
	msg := &Message{}
	sets, err := scanMessage(b, msg)
	if err != nil {
		return nil, err
	}
	for len(sets) > 0 {
		var ds DataSet
		ds.TemplateID, ds.Payload, sets, _ = nextSet(sets) // framing validated by scanMessage
		if ds.TemplateID >= MinDataSetID {
			msg.DataSets = append(msg.DataSets, ds)
		}
	}
	return msg, nil
}

// scanMessage validates the whole message's framing — header, every set
// header, every template record — and fills msg's header fields and
// templates; data sets are left alone. It returns the set area, which
// nextSet then splits without failing. A message carrying no template set
// allocates nothing.
func scanMessage(b []byte, msg *Message) (sets []byte, err error) {
	if len(b) < MessageHeaderLen {
		return nil, fmt.Errorf("ipfix: message too short (%d bytes)", len(b))
	}
	if v := binary.BigEndian.Uint16(b[0:]); v != Version {
		return nil, fmt.Errorf("ipfix: unsupported version %d", v)
	}
	msgLen := int(binary.BigEndian.Uint16(b[2:]))
	if msgLen < MessageHeaderLen || msgLen > len(b) {
		return nil, fmt.Errorf("ipfix: bad message length %d (have %d bytes)", msgLen, len(b))
	}
	msg.ExportTime = time.Unix(int64(binary.BigEndian.Uint32(b[4:])), 0).UTC()
	msg.Sequence = binary.BigEndian.Uint32(b[8:])
	msg.DomainID = binary.BigEndian.Uint32(b[12:])
	sets = b[MessageHeaderLen:msgLen]
	for rest := sets; len(rest) > 0; {
		var setID uint16
		var body []byte
		if setID, body, rest, err = nextSet(rest); err != nil {
			return nil, err
		}
		switch {
		case setID == TemplateSetID:
			ts, err := parseTemplates(body)
			if err != nil {
				return nil, err
			}
			msg.Templates = append(msg.Templates, ts...)
		case setID == OptionsTemplateSetID:
			// Options data is irrelevant to IPD; skip.
		case setID >= MinDataSetID:
		default:
			return nil, fmt.Errorf("ipfix: reserved set id %d", setID)
		}
	}
	return sets, nil
}

// nextSet splits the first set off a message's set area.
func nextSet(rest []byte) (setID uint16, body, tail []byte, err error) {
	if len(rest) < SetHeaderLen {
		return 0, nil, nil, fmt.Errorf("ipfix: truncated set header")
	}
	setID = binary.BigEndian.Uint16(rest[0:])
	setLen := int(binary.BigEndian.Uint16(rest[2:]))
	if setLen < SetHeaderLen || setLen > len(rest) {
		return 0, nil, nil, fmt.Errorf("ipfix: bad set length %d", setLen)
	}
	return setID, rest[SetHeaderLen:setLen], rest[setLen:], nil
}

func parseTemplates(b []byte) ([]Template, error) {
	var out []Template
	for len(b) >= 4 {
		id := binary.BigEndian.Uint16(b[0:])
		count := int(binary.BigEndian.Uint16(b[2:]))
		if id < MinDataSetID {
			return nil, fmt.Errorf("ipfix: template id %d below 256", id)
		}
		b = b[4:]
		if count == 0 {
			// Template withdrawal: represented as a template with no
			// fields.
			out = append(out, Template{ID: id})
			continue
		}
		if len(b) < 4*count {
			return nil, fmt.Errorf("ipfix: truncated template %d", id)
		}
		t := Template{ID: id, Fields: make([]FieldSpec, 0, count)}
		for i := 0; i < count; i++ {
			ie := binary.BigEndian.Uint16(b[0:])
			length := binary.BigEndian.Uint16(b[2:])
			if ie&0x8000 != 0 {
				return nil, fmt.Errorf("ipfix: enterprise element %d not supported", ie&0x7fff)
			}
			if length == 0xFFFF || length == 0 {
				return nil, fmt.Errorf("ipfix: variable/zero length field %d", ie)
			}
			t.Fields = append(t.Fields, FieldSpec{ID: ie, Length: length})
			b = b[4:]
		}
		out = append(out, t)
	}
	if len(b) != 0 && len(b) < 4 {
		// Trailing padding (up to 3 bytes) is legal.
		for _, x := range b {
			if x != 0 {
				return nil, fmt.Errorf("ipfix: non-zero template padding")
			}
		}
	}
	return out, nil
}

// Cache resolves data sets against previously seen templates, keyed by
// observation domain (one Cache per exporter).
type Cache struct {
	templates map[uint32]map[uint16]Template
}

// NewCache returns an empty template cache.
func NewCache() *Cache {
	return &Cache{templates: make(map[uint32]map[uint16]Template)}
}

// Add registers (or withdraws) the message's templates.
func (c *Cache) Add(domain uint32, ts []Template) {
	m := c.templates[domain]
	if m == nil {
		m = make(map[uint16]Template)
		c.templates[domain] = m
	}
	for _, t := range ts {
		if len(t.Fields) == 0 {
			delete(m, t.ID)
			continue
		}
		m[t.ID] = t
	}
}

// Lookup returns the template for (domain, id).
func (c *Cache) Lookup(domain uint32, id uint16) (Template, bool) {
	t, ok := c.templates[domain][id]
	return t, ok
}

// Len returns the number of cached templates across domains.
func (c *Cache) Len() int {
	n := 0
	for _, m := range c.templates {
		n += len(m)
	}
	return n
}

// DecodeRecords decodes a data set against its template into flow records
// attributed to router. Records lacking a source address are skipped and
// counted in the second return value. Up to 3 bytes of trailing padding are
// tolerated.
func DecodeRecords(msg *Message, t Template, ds DataSet, router flow.RouterID) ([]flow.Record, int, error) {
	recLen, n, err := t.split(ds.Payload)
	if err != nil {
		return nil, 0, err
	}
	var out []flow.Record
	for i := 0; i < n; i++ {
		if rec, ok := decodeOne(msg, t, ds.Payload[i*recLen:(i+1)*recLen], router); ok {
			out = append(out, rec)
		}
	}
	return out, n - len(out), nil
}

// split validates a data set's payload against the template: the record
// length, how many records the payload holds, and an error when the template
// is empty or more than padding (4 bytes or more) trails the last record.
func (t Template) split(payload []byte) (recLen, n int, err error) {
	if recLen = t.recordLen(); recLen == 0 {
		return 0, 0, fmt.Errorf("ipfix: empty template %d", t.ID)
	}
	n = len(payload) / recLen
	if trail := len(payload) - n*recLen; trail >= 4 {
		return 0, 0, fmt.Errorf("ipfix: %d trailing bytes in data set %d", trail, t.ID)
	}
	return recLen, n, nil
}

func decodeOne(msg *Message, t Template, b []byte, router flow.RouterID) (flow.Record, bool) {
	rec := flow.Record{Ts: msg.ExportTime, In: flow.Ingress{Router: router}}
	off := 0
	for _, f := range t.Fields {
		v := b[off : off+int(f.Length)]
		switch f.ID {
		case IESourceIPv4Address:
			if f.Length == 4 {
				rec.Src = netip.AddrFrom4([4]byte(v))
			}
		case IESourceIPv6Address:
			if f.Length == 16 {
				rec.Src = netip.AddrFrom16([16]byte(v))
			}
		case IEDestinationIPv4Address:
			if f.Length == 4 {
				rec.Dst = netip.AddrFrom4([4]byte(v))
			}
		case IEDestinationIPv6Address:
			if f.Length == 16 {
				rec.Dst = netip.AddrFrom16([16]byte(v))
			}
		case IEIngressInterface:
			rec.In.Iface = flow.IfaceID(beUint(v))
		case IEOctetDeltaCount:
			rec.Bytes = clampU32(beUint(v))
		case IEPacketDeltaCount:
			rec.Packets = clampU32(beUint(v))
		case IEFlowStartMilliseconds:
			if ms := beUint(v); ms > 0 {
				rec.Ts = time.UnixMilli(int64(ms)).UTC()
			}
		}
		off += int(f.Length)
	}
	if !rec.Src.IsValid() {
		return flow.Record{}, false
	}
	return rec, true
}

func beUint(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

func clampU32(v uint64) uint32 {
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}
