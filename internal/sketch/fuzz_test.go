package sketch

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"ipd/internal/persist"
)

const fuzzMagic, fuzzVersion = 0x534b4348, 1 // "SKCH"

// seedPayload builds a valid encoded sketch section for the corpus.
func seedPayload(width, depth, gens int, observes int) []byte {
	s, err := New(Config{Width: width, Depth: depth, Generations: gens, Seed: 99})
	if err != nil {
		panic(err)
	}
	ts := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)
	a := netip.MustParseAddr("10.0.0.0").As4()
	for i := 0; i < observes; i++ {
		a[3] = byte(i)
		s.Observe(netip.PrefixFrom(netip.AddrFrom4(a), 28), float64(i%3+1), ts)
		if i%7 == 6 {
			ts = ts.Add(time.Minute)
			s.Rotate(ts)
		}
	}
	enc := persist.NewEncoder(fuzzMagic, fuzzVersion)
	s.EncodeState(enc)
	return enc.Finish()
}

// FuzzSketchCheckpointRoundTrip drives arbitrary bytes through the persist
// sketch section decoder: anything that decodes cleanly must re-encode
// byte-identically (the kill-and-restore determinism contract), and nothing
// may panic or over-allocate regardless of input.
func FuzzSketchCheckpointRoundTrip(f *testing.F) {
	f.Add(seedPayload(16, 1, 2, 0))
	f.Add(seedPayload(16, 2, 3, 10))
	f.Add(seedPayload(64, 4, 3, 40))
	f.Add(seedPayload(32, 3, 4, 25))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := persist.NewDecoder(data, fuzzMagic, fuzzVersion)
		if err != nil {
			return // torn header/CRC: rejected before any field decodes
		}
		s, err := DecodeState(dec)
		if err != nil {
			return
		}
		if err := dec.Finish(); err != nil {
			return
		}
		enc := persist.NewEncoder(fuzzMagic, fuzzVersion)
		s.EncodeState(enc)
		out := enc.Finish()
		if !bytes.Equal(out, data) {
			t.Fatalf("sketch section round-trip drifted: %d bytes in, %d out", len(data), len(out))
		}
		// The decoded sketch must be usable, not just encodable.
		p := netip.MustParsePrefix("10.0.0.0/28")
		if est := s.Estimate(p); est < 0 {
			t.Fatalf("negative estimate %v from decoded sketch", est)
		}
		s.Rotate(time.Date(2024, 8, 4, 13, 0, 0, 0, time.UTC))
	})
}
