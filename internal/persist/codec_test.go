package persist

import (
	"errors"
	"net/netip"
	"testing"
	"time"
)

const (
	testMagic   = 0x54455354 // "TEST"
	testVersion = 3
)

func roundTrip(t *testing.T, encode func(*Encoder)) *Decoder {
	t.Helper()
	enc := NewEncoder(testMagic, testVersion)
	encode(enc)
	dec, err := NewDecoder(enc.Finish(), testMagic, testVersion)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	return dec
}

func TestCodecRoundTrip(t *testing.T) {
	ts := time.Unix(1_600_000_123, 456).UTC()
	v4 := netip.MustParseAddr("192.0.2.7")
	v6 := netip.MustParseAddr("2001:db8::42")
	pfx := netip.MustParsePrefix("10.12.0.0/14")

	dec := roundTrip(t, func(enc *Encoder) {
		enc.Uvarint(0)
		enc.Uvarint(1 << 40)
		enc.Varint(-77)
		enc.Bool(true)
		enc.Bool(false)
		enc.Float64(3.5)
		enc.Float64(0)
		enc.Time(ts)
		enc.Time(time.Time{})
		enc.Addr(v4)
		enc.Addr(v6)
		enc.Addr(netip.Addr{})
		enc.Prefix(pfx)
	})

	check := func(name string, got, want any) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	u, err := dec.Uvarint()
	check("uvarint0", u, uint64(0))
	u, err = dec.Uvarint()
	check("uvarint", u, uint64(1<<40))
	i, err := dec.Varint()
	check("varint", i, int64(-77))
	b, err := dec.Bool()
	check("bool true", b, true)
	b, err = dec.Bool()
	check("bool false", b, false)
	f, err := dec.Float64()
	check("float", f, 3.5)
	f, err = dec.Float64()
	check("float zero", f, 0.0)
	gotTs, err := dec.Time()
	if !gotTs.Equal(ts) {
		t.Errorf("time = %v, want %v", gotTs, ts)
	}
	gotTs, err = dec.Time()
	if !gotTs.IsZero() {
		t.Errorf("zero time = %v, want zero", gotTs)
	}
	a, err := dec.Addr()
	check("v4 addr", a, v4)
	a, err = dec.Addr()
	check("v6 addr", a, v6)
	a, err = dec.Addr()
	check("zero addr", a, netip.Addr{})
	p, err := dec.Prefix()
	check("prefix", p, pfx)
	if err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestCodecDetectsCorruption(t *testing.T) {
	enc := NewEncoder(testMagic, testVersion)
	enc.Uvarint(12345)
	enc.Addr(netip.MustParseAddr("2001:db8::42"))
	data := enc.Finish()

	// Flip one bit in every byte position; every single corruption must be
	// caught by the CRC (or the magic/version check for header bytes).
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		if _, err := NewDecoder(mut, testMagic, testVersion); err == nil {
			t.Errorf("corruption at byte %d undetected", i)
		}
	}
}

func TestCodecTruncation(t *testing.T) {
	enc := NewEncoder(testMagic, testVersion)
	enc.Prefix(netip.MustParsePrefix("2001:db8::/48"))
	data := enc.Finish()
	for n := 0; n < len(data); n++ {
		if _, err := NewDecoder(data[:n], testMagic, testVersion); err == nil {
			t.Errorf("truncation to %d bytes undetected", n)
		}
	}
}

func TestCodecMagicAndVersion(t *testing.T) {
	enc := NewEncoder(testMagic, testVersion)
	data := enc.Finish()
	if _, err := NewDecoder(data, testMagic+1, testVersion); !errors.Is(err, ErrBadMagic) {
		t.Errorf("wrong magic: err = %v, want ErrBadMagic", err)
	}
	if _, err := NewDecoder(data, testMagic, testVersion+1); !errors.Is(err, ErrBadVersion) {
		t.Errorf("wrong version: err = %v, want ErrBadVersion", err)
	}
}

func TestCodecTrailingBytes(t *testing.T) {
	enc := NewEncoder(testMagic, testVersion)
	enc.Uvarint(1)
	enc.Uvarint(2)
	dec, err := NewDecoder(enc.Finish(), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Uvarint(); err != nil {
		t.Fatal(err)
	}
	if err := dec.Finish(); err == nil {
		t.Error("Finish accepted undecoded trailing bytes")
	}
}

func TestCodecRejectsShortReads(t *testing.T) {
	// A decoder that runs past the payload must return ErrTruncated, not
	// panic or read the CRC trailer as data.
	enc := NewEncoder(testMagic, testVersion)
	enc.Uvarint(7)
	dec, err := NewDecoder(enc.Finish(), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Uvarint(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Float64(); !errors.Is(err, ErrTruncated) {
		t.Errorf("overread: err = %v, want ErrTruncated", err)
	}
}

func TestCodecRejectsBogusLengths(t *testing.T) {
	// Hand-craft a container whose length prefix claims more data than
	// the buffer holds but passes the CRC (by building it through the
	// encoder's raw buffer path: encode a huge uvarint where a length is
	// expected).
	enc := NewEncoder(testMagic, testVersion)
	enc.Uvarint(maxLen + 1)
	dec, err := NewDecoder(enc.Finish(), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Len(); err == nil {
		t.Error("Len accepted a length above maxLen")
	}
}

func TestCodecRejectsBadBool(t *testing.T) {
	enc := NewEncoder(testMagic, testVersion)
	enc.Uvarint(2) // valid varint, invalid bool encoding
	dec, err := NewDecoder(enc.Finish(), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Bool(); err == nil {
		t.Error("Bool accepted byte 2")
	}
}
