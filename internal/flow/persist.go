package flow

import (
	"fmt"
	"math"

	"ipd/internal/persist"
)

// EncodeTo appends the record to enc: the encoding of a record embedded in
// another payload (a checkpoint's open statistical-time buckets), as opposed
// to the Reader/Writer stream format.
func (r *Record) EncodeTo(enc *persist.Encoder) {
	enc.Time(r.Ts)
	enc.Addr(r.Src)
	enc.Addr(r.Dst)
	enc.Uvarint(uint64(r.In.Router))
	enc.Uvarint(uint64(r.In.Iface))
	enc.Uvarint(uint64(r.Bytes))
	enc.Uvarint(uint64(r.Packets))
}

// DecodeFrom reads a record written by EncodeTo.
func (r *Record) DecodeFrom(dec *persist.Decoder) error {
	var err error
	if r.Ts, err = dec.Time(); err != nil {
		return err
	}
	if r.Src, err = dec.Addr(); err != nil {
		return err
	}
	if r.Dst, err = dec.Addr(); err != nil {
		return err
	}
	var n [4]uint64 // router, iface, bytes, packets
	for i := range n {
		if n[i], err = dec.Uvarint(); err != nil {
			return err
		}
	}
	if n[0] > math.MaxUint16 || n[1] > math.MaxUint16 {
		return fmt.Errorf("flow: ingress id out of range (router %d iface %d)", n[0], n[1])
	}
	if n[2] > math.MaxUint32 || n[3] > math.MaxUint32 {
		return fmt.Errorf("flow: volume out of range (bytes %d packets %d)", n[2], n[3])
	}
	r.In = Ingress{Router: RouterID(n[0]), Iface: IfaceID(n[1])}
	r.Bytes, r.Packets = uint32(n[2]), uint32(n[3])
	return nil
}
