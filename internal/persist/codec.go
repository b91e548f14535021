// Package persist is the crash-safety substrate of the IPD reproduction: a
// versioned, CRC-guarded binary codec for checkpoint payloads, atomic file
// replacement (temp file + fsync + rename), and a checkpoint Manager that
// rotates, retains, and restores checkpoint files with telemetry.
//
// The codec is deliberately primitive-oriented — callers (internal/core for
// the engine partition, internal/stattime for open buckets) encode their own
// state with it, because that state is unexported to everyone else. Every
// decode primitive is bounds-checked and every collection length is capped,
// so a corrupt or adversarial checkpoint fails fast with an error instead of
// allocating unbounded memory or panicking.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net/netip"
	"time"
)

// ErrChecksum is returned when a payload's CRC-32 trailer does not match its
// contents (torn write, bit rot, truncation).
var ErrChecksum = errors.New("persist: checksum mismatch")

// ErrBadMagic is returned when a payload does not start with the expected
// magic number (wrong file, garbage).
var ErrBadMagic = errors.New("persist: bad magic")

// ErrBadVersion is returned for payloads written by an unknown codec
// version.
var ErrBadVersion = errors.New("persist: unsupported version")

// ErrTruncated is returned when a decode primitive runs off the end of the
// payload.
var ErrTruncated = errors.New("persist: truncated payload")

// maxLen caps every collection length the decoder accepts. A corrupt length
// field then costs one error, not gigabytes of allocation.
const maxLen = 1 << 26

// headerSize is magic(4) + version(2); trailerSize is the CRC-32 (IEEE).
const (
	headerSize  = 6
	trailerSize = 4
)

// Encoder builds a CRC-guarded payload: a magic/version header,
// caller-appended primitives, and a CRC-32 trailer over everything before it.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a payload with the given magic and version.
func NewEncoder(magic uint32, version uint16) *Encoder {
	e := &Encoder{buf: make([]byte, 0, 4096)}
	e.buf = binary.BigEndian.AppendUint32(e.buf, magic)
	e.buf = binary.BigEndian.AppendUint16(e.buf, version)
	return e
}

// Finish appends the CRC-32 trailer and returns the complete payload. The
// encoder must not be reused afterwards.
func (e *Encoder) Finish() []byte {
	sum := crc32.ChecksumIEEE(e.buf)
	e.buf = binary.BigEndian.AppendUint32(e.buf, sum)
	return e.buf
}

// Len returns the number of bytes encoded so far (without the trailer).
func (e *Encoder) Len() int { return len(e.buf) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a signed (zigzag) varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Float64 appends the IEEE-754 bits as 8 fixed bytes (varints mangle
// floats).
func (e *Encoder) Float64(v float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Time appends a timestamp as zero-flag + UnixNano. The zero time
// round-trips exactly (its UnixNano is undefined for encoding purposes).
func (e *Encoder) Time(t time.Time) {
	if t.IsZero() {
		e.Bool(true)
		return
	}
	e.Bool(false)
	e.Varint(t.UnixNano())
}

// Addr appends a netip.Addr as family-length + raw bytes; the invalid
// (zero) Addr encodes as length 0.
func (e *Encoder) Addr(a netip.Addr) {
	if !a.IsValid() {
		e.buf = append(e.buf, 0)
		return
	}
	a = a.Unmap()
	if a.Is4() {
		b := a.As4()
		e.buf = append(e.buf, 4)
		e.buf = append(e.buf, b[:]...)
		return
	}
	b := a.As16()
	e.buf = append(e.buf, 16)
	e.buf = append(e.buf, b[:]...)
}

// Prefix appends a netip.Prefix as Addr + length byte. Must be valid.
func (e *Encoder) Prefix(p netip.Prefix) {
	e.Addr(p.Addr())
	e.buf = append(e.buf, byte(p.Bits()))
}

// Decoder reads back a payload written by Encoder. NewDecoder validates the
// magic, version, and CRC up front, so by the time primitives are read the
// bytes are known to be exactly what was written (any remaining decode error
// means a logic-level incompatibility, not corruption).
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder validates data's header and CRC trailer and returns a decoder
// positioned after the header.
func NewDecoder(data []byte, magic uint32, version uint16) (*Decoder, error) {
	if len(data) < headerSize+trailerSize {
		return nil, ErrTruncated
	}
	body, trailer := data[:len(data)-trailerSize], data[len(data)-trailerSize:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	if binary.BigEndian.Uint32(body) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.BigEndian.Uint16(body[4:]); v != version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, v, version)
	}
	return &Decoder{buf: body, off: headerSize}, nil
}

// Finish verifies the whole payload was consumed; leftover bytes mean the
// reader and writer disagree about the format.
func (d *Decoder) Finish() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("persist: %d trailing bytes after decode", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) take(n int) ([]byte, error) {
	if n < 0 || len(d.buf)-d.off < n {
		return nil, ErrTruncated
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.off += n
	return v, nil
}

// Varint reads a signed varint.
func (d *Decoder) Varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.off += n
	return v, nil
}

// Len reads a collection length and enforces the global cap.
func (d *Decoder) Len() (int, error) {
	v, err := d.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxLen {
		return 0, fmt.Errorf("persist: length %d exceeds limit %d", v, maxLen)
	}
	return int(v), nil
}

// Bool reads one 0/1 byte.
func (d *Decoder) Bool() (bool, error) {
	b, err := d.take(1)
	if err != nil {
		return false, err
	}
	switch b[0] {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("persist: bad bool byte %#x", b[0])
}

// Float64 reads 8 fixed bytes of IEEE-754.
func (d *Decoder) Float64() (float64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
}

// Time reads a timestamp written by Encoder.Time.
func (d *Decoder) Time() (time.Time, error) {
	zero, err := d.Bool()
	if err != nil {
		return time.Time{}, err
	}
	if zero {
		return time.Time{}, nil
	}
	ns, err := d.Varint()
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(0, ns).UTC(), nil
}

// Addr reads a netip.Addr written by Encoder.Addr.
func (d *Decoder) Addr() (netip.Addr, error) {
	l, err := d.take(1)
	if err != nil {
		return netip.Addr{}, err
	}
	switch l[0] {
	case 0:
		return netip.Addr{}, nil
	case 4:
		b, err := d.take(4)
		if err != nil {
			return netip.Addr{}, err
		}
		return netip.AddrFrom4([4]byte(b)), nil
	case 16:
		b, err := d.take(16)
		if err != nil {
			return netip.Addr{}, err
		}
		return netip.AddrFrom16([16]byte(b)), nil
	}
	return netip.Addr{}, fmt.Errorf("persist: bad address length %d", l[0])
}

// Prefix reads a netip.Prefix written by Encoder.Prefix.
func (d *Decoder) Prefix() (netip.Prefix, error) {
	a, err := d.Addr()
	if err != nil {
		return netip.Prefix{}, err
	}
	b, err := d.take(1)
	if err != nil {
		return netip.Prefix{}, err
	}
	p := netip.PrefixFrom(a, int(b[0]))
	if !p.IsValid() {
		return netip.Prefix{}, fmt.Errorf("persist: invalid prefix %v/%d", a, b[0])
	}
	return p, nil
}
