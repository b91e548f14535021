package ipfix

import (
	"encoding/binary"
	"fmt"

	"ipd/internal/flow"
)

// DefaultTemplateV4 and DefaultTemplateV6 are the record layouts the
// bundled exporter emits (and that the IPFIX collector's tests exercise).
var (
	DefaultTemplateV4 = Template{ID: 256, Fields: []FieldSpec{
		{ID: IESourceIPv4Address, Length: 4},
		{ID: IEDestinationIPv4Address, Length: 4},
		{ID: IEIngressInterface, Length: 4},
		{ID: IEOctetDeltaCount, Length: 8},
		{ID: IEPacketDeltaCount, Length: 8},
		{ID: IEFlowStartMilliseconds, Length: 8},
	}}
	DefaultTemplateV6 = Template{ID: 257, Fields: []FieldSpec{
		{ID: IESourceIPv6Address, Length: 16},
		{ID: IEDestinationIPv6Address, Length: 16},
		{ID: IEIngressInterface, Length: 4},
		{ID: IEOctetDeltaCount, Length: 8},
		{ID: IEPacketDeltaCount, Length: 8},
		{ID: IEFlowStartMilliseconds, Length: 8},
	}}
)

// MessageBuilder assembles IPFIX messages for one observation domain.
// It is the export side used by tests and lab tooling (real deployments
// receive from router exporters).
type MessageBuilder struct {
	domain   uint32
	sequence uint32
}

// NewMessageBuilder returns a builder for the given observation domain.
func NewMessageBuilder(domain uint32) *MessageBuilder {
	return &MessageBuilder{domain: domain}
}

// TemplateMessage encodes a message carrying the given templates.
func (mb *MessageBuilder) TemplateMessage(exportTime uint32, ts ...Template) ([]byte, error) {
	var body []byte
	for _, t := range ts {
		if t.ID < MinDataSetID {
			return nil, fmt.Errorf("ipfix: template id %d below 256", t.ID)
		}
		var rec []byte
		rec = binary.BigEndian.AppendUint16(rec, t.ID)
		rec = binary.BigEndian.AppendUint16(rec, uint16(len(t.Fields)))
		for _, f := range t.Fields {
			rec = binary.BigEndian.AppendUint16(rec, f.ID)
			rec = binary.BigEndian.AppendUint16(rec, f.Length)
		}
		body = append(body, rec...)
	}
	// Template records do not advance the sequence counter (RFC 7011
	// §3.1: Sequence Number counts exported data records only).
	return mb.finish(exportTime, TemplateSetID, body, 0)
}

// DataMessage encodes a message carrying records under the given template.
// All records must match the template's family; mismatching records are
// rejected.
func (mb *MessageBuilder) DataMessage(exportTime uint32, t Template, recs []flow.Record) ([]byte, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("ipfix: empty data message")
	}
	var body []byte
	for _, rec := range recs {
		enc, err := encodeRecord(t, rec)
		if err != nil {
			return nil, err
		}
		body = append(body, enc...)
	}
	return mb.finish(exportTime, t.ID, body, len(recs))
}

// finish frames the message. The header Sequence field carries the count
// of data records exported before this message (RFC 7011 §3.1), so it
// advances by dataRecords — zero for template messages — not per message.
func (mb *MessageBuilder) finish(exportTime uint32, setID uint16, body []byte, dataRecords int) ([]byte, error) {
	msgLen := MessageHeaderLen + SetHeaderLen + len(body)
	if msgLen > 0xFFFF {
		return nil, fmt.Errorf("ipfix: message too large (%d bytes)", msgLen)
	}
	out := make([]byte, 0, msgLen)
	out = binary.BigEndian.AppendUint16(out, Version)
	out = binary.BigEndian.AppendUint16(out, uint16(msgLen))
	out = binary.BigEndian.AppendUint32(out, exportTime)
	out = binary.BigEndian.AppendUint32(out, mb.sequence)
	out = binary.BigEndian.AppendUint32(out, mb.domain)
	out = binary.BigEndian.AppendUint16(out, setID)
	out = binary.BigEndian.AppendUint16(out, uint16(SetHeaderLen+len(body)))
	out = append(out, body...)
	mb.sequence += uint32(dataRecords)
	return out, nil
}

// appendUintN appends v big-endian in exactly n bytes (truncating high
// bits if v does not fit — the template's declared width wins).
func appendUintN(out []byte, v uint64, n int) []byte {
	for i := n - 1; i >= 0; i-- {
		out = append(out, byte(v>>(8*i)))
	}
	return out
}

func encodeRecord(t Template, rec flow.Record) ([]byte, error) {
	var out []byte
	for _, f := range t.Fields {
		switch f.ID {
		case IESourceIPv4Address:
			a := rec.Src.Unmap()
			if !a.Is4() {
				return nil, fmt.Errorf("ipfix: record src %v does not fit IPv4 template", rec.Src)
			}
			b := a.As4()
			out = append(out, b[:]...)
		case IESourceIPv6Address:
			if !rec.Src.IsValid() || rec.Src.Unmap().Is4() {
				return nil, fmt.Errorf("ipfix: record src %v does not fit IPv6 template", rec.Src)
			}
			b := rec.Src.As16()
			out = append(out, b[:]...)
		case IEDestinationIPv4Address:
			var b [4]byte
			if rec.Dst.IsValid() && rec.Dst.Unmap().Is4() {
				b = rec.Dst.Unmap().As4()
			}
			out = append(out, b[:]...)
		case IEDestinationIPv6Address:
			var b [16]byte
			if rec.Dst.IsValid() && !rec.Dst.Unmap().Is4() {
				b = rec.Dst.As16()
			}
			out = append(out, b[:]...)
		case IEIngressInterface:
			out = appendUintN(out, uint64(rec.In.Iface), int(f.Length))
		case IEOctetDeltaCount:
			out = appendUintN(out, uint64(rec.Bytes), int(f.Length))
		case IEPacketDeltaCount:
			out = appendUintN(out, uint64(rec.Packets), int(f.Length))
		case IEFlowStartMilliseconds:
			out = appendUintN(out, uint64(rec.Ts.UnixMilli()), int(f.Length))
		default:
			// Unknown elements encode as zeros of the declared length.
			out = append(out, make([]byte, f.Length)...)
		}
	}
	return out, nil
}
