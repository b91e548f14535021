// Package delta ships per-range stage-1 vote deltas (raw flow records with
// their ingress votes) from edge collectors to a central stage-2 core over a
// resilient, exactly-once stream.
//
// The design extends the PR 4 crash-safety contract across a network hop:
//
//   - Wire frames reuse the internal/persist varint+CRC codec, length-framed
//     with persist.WriteFrame, so a torn TCP stream fails the same way a torn
//     checkpoint file does — detectably, never silently.
//   - Delivery is tracked in cumulative per-edge *record offsets* (1-based),
//     not frame sequence numbers. Frames are a transport detail: after a
//     sender crash the flush timer re-frames differently, but the records —
//     re-derived deterministically from the edge's input — count to the same
//     offsets, so the handshake's "resume after offset N" is exact.
//   - The receiver acks only *applied* offsets (records handed to the engine
//     under the checkpoint lock), so a core crash + checkpoint restore tells
//     every edge precisely where to resume: at-least-once on the wire,
//     exactly-once in the partition.
//   - A deterministic watermark merge (see receiver.go) makes the core's
//     final partition byte-identical to a single-node run over the same
//     records, independent of chaos-induced arrival interleaving.
package delta

import (
	"fmt"
	"math"
	"time"

	"ipd/internal/flow"
	"ipd/internal/persist"
)

// Wire format constants. Payloads are persist-encoded (magic+version header,
// CRC-32 trailer) and framed with persist.WriteFrame.
const (
	// wireMagic is "IPDD" — IPD delta stream.
	wireMagic   uint32 = 0x49504444
	wireVersion uint16 = 1

	// MaxFrameBytes caps a single wire frame; at ~30 bytes per encoded
	// record this fits tens of thousands of records per delta.
	MaxFrameBytes = 1 << 20
)

// FrameType discriminates wire frames.
type FrameType uint8

const (
	// FrameHello opens a session: edge → core, carries EdgeID.
	FrameHello FrameType = 1
	// FrameHelloAck answers Hello: core → edge, Offset = last applied
	// record offset for that edge; the sender resumes after it.
	FrameHelloAck FrameType = 2
	// FrameDelta carries records: Offset = offset of the first record in
	// the frame, Watermark = the edge's running-max record timestamp after
	// the last record.
	FrameDelta FrameType = 3
	// FrameAck reports progress: core → edge, Offset = highest contiguous
	// applied record offset.
	FrameAck FrameType = 4
	// FrameHeartbeat keeps an idle session alive in both directions and
	// advances the edge watermark without data.
	FrameHeartbeat FrameType = 5
	// FrameFin announces the edge's stream is complete (no more records
	// ever); the merger treats the edge's watermark as +infinity.
	FrameFin FrameType = 6
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameHelloAck:
		return "hello-ack"
	case FrameDelta:
		return "delta"
	case FrameAck:
		return "ack"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameFin:
		return "fin"
	default:
		return fmt.Sprintf("frame(%d)", uint8(t))
	}
}

// Frame is one decoded wire frame. Unused fields are zero for types that do
// not carry them.
type Frame struct {
	Type      FrameType
	EdgeID    string        // Hello
	Offset    uint64        // HelloAck/Ack: applied; Delta: first record's offset
	Watermark time.Time     // Delta/Heartbeat: edge watermark
	Records   []flow.Record // Delta
}

// maxEdgeID bounds the EdgeID string on the wire.
const maxEdgeID = 256

// EncodeFrame renders f as a framed persist payload ready for a single
// conn write.
func EncodeFrame(f Frame) ([]byte, error) {
	if len(f.EdgeID) > maxEdgeID {
		return nil, fmt.Errorf("delta: edge id longer than %d bytes", maxEdgeID)
	}
	enc := persist.NewEncoder(wireMagic, wireVersion)
	enc.Uvarint(uint64(f.Type))
	switch f.Type {
	case FrameHello:
		enc.Bytes([]byte(f.EdgeID))
	case FrameHelloAck, FrameAck:
		enc.Uvarint(f.Offset)
	case FrameDelta:
		enc.Uvarint(f.Offset)
		enc.Time(f.Watermark)
		enc.Uvarint(uint64(len(f.Records)))
		for i := range f.Records {
			f.Records[i].EncodeTo(enc)
		}
	case FrameHeartbeat, FrameFin:
		enc.Time(f.Watermark)
	default:
		return nil, fmt.Errorf("delta: cannot encode frame type %v", f.Type)
	}
	payload := enc.Finish()
	if len(payload) > MaxFrameBytes {
		return nil, fmt.Errorf("delta: frame of %d bytes exceeds MaxFrameBytes", len(payload))
	}
	return payload, nil
}

// DecodeFrame parses one frame payload (as returned by persist.FrameReader).
func DecodeFrame(payload []byte) (Frame, error) {
	var f Frame
	dec, err := persist.NewDecoder(payload, wireMagic, wireVersion)
	if err != nil {
		return f, err
	}
	t, err := dec.Uvarint()
	if err != nil {
		return f, err
	}
	if t == 0 || t > math.MaxUint8 {
		return f, fmt.Errorf("delta: bad frame type %d", t)
	}
	f.Type = FrameType(t)
	switch f.Type {
	case FrameHello:
		b, err := dec.Bytes()
		if err != nil {
			return f, err
		}
		if len(b) > maxEdgeID {
			return f, fmt.Errorf("delta: edge id longer than %d bytes", maxEdgeID)
		}
		f.EdgeID = string(b)
	case FrameHelloAck, FrameAck:
		if f.Offset, err = dec.Uvarint(); err != nil {
			return f, err
		}
	case FrameDelta:
		if f.Offset, err = dec.Uvarint(); err != nil {
			return f, err
		}
		if f.Watermark, err = dec.Time(); err != nil {
			return f, err
		}
		n, err := dec.Len()
		if err != nil {
			return f, err
		}
		f.Records = make([]flow.Record, n)
		for i := range f.Records {
			if err := f.Records[i].DecodeFrom(dec); err != nil {
				return f, err
			}
		}
	case FrameHeartbeat, FrameFin:
		if f.Watermark, err = dec.Time(); err != nil {
			return f, err
		}
	default:
		return f, fmt.Errorf("delta: unknown frame type %v", f.Type)
	}
	if err := dec.Finish(); err != nil {
		return f, err
	}
	return f, nil
}
