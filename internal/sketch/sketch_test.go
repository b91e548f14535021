package sketch

import (
	"bytes"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"ipd/internal/persist"
)

var t0 = time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)

func testSketch(t *testing.T) *Sketch {
	t.Helper()
	s, err := New(Config{Width: 64, Depth: 4, Generations: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestConfigValidate(t *testing.T) {
	cases := []Config{
		{Width: 8, Depth: 4, Generations: 3, Seed: 1},
		{Width: 64, Depth: 0, Generations: 3, Seed: 1},
		{Width: 64, Depth: 17, Generations: 3, Seed: 1},
		{Width: 64, Depth: 4, Generations: 1, Seed: 1},
		{Width: 64, Depth: 4, Generations: 65, Seed: 1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted invalid config", i, c)
		}
	}
	def := Config{}.WithDefaults()
	if err := def.Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	if def.Width != DefaultWidth || def.Depth != DefaultDepth {
		t.Errorf("defaults = %+v", def)
	}
	if e := def.Epsilon(); e <= 0 || e > 0.01 {
		t.Errorf("default epsilon %v out of expected band", e)
	}
	if d := def.Delta(); d <= 0 || d > 0.02 {
		t.Errorf("default delta %v out of expected band", d)
	}
}

// TestObserveEstimate checks the count-min contract: estimates never
// undercount, and for a lightly loaded sketch they are exact.
func TestObserveEstimate(t *testing.T) {
	s := testSketch(t)
	heavy := pfx("10.0.0.0/28")
	for i := 0; i < 10; i++ {
		s.Observe(heavy, 5, t0)
	}
	light := pfx("192.168.1.0/28")
	s.Observe(light, 2, t0)

	if est := s.Estimate(heavy); est < 50 {
		t.Errorf("heavy estimate %v undercounts true 50", est)
	}
	if est := s.Estimate(light); est < 2 {
		t.Errorf("light estimate %v undercounts true 2", est)
	}
	if s.Estimate(pfx("172.16.0.0/28")) > 52 {
		t.Error("absent key estimated above total mass")
	}
	if !s.Contains(heavy) || !s.Contains(light) {
		t.Error("observed keys not contained")
	}
	if s.Observes() != 11 {
		t.Errorf("observes = %d, want 11", s.Observes())
	}
}

// TestRotateExpiry checks the generation window: a source stops being
// contained once its generation leaves the ring, and first-seen reports
// the oldest retained generation.
func TestRotateExpiry(t *testing.T) {
	s := testSketch(t)
	old := pfx("10.0.0.0/28")
	s.Observe(old, 1, t0)

	for i := 1; i <= 2; i++ {
		s.Rotate(t0.Add(time.Duration(i) * time.Minute))
	}
	if !s.Contains(old) {
		t.Fatal("key expired while its generation is still in the ring")
	}
	fs, ok := s.FirstSeen(old)
	if !ok || !fs.Equal(t0) {
		t.Fatalf("FirstSeen = %v, %v; want %v, true", fs, ok, t0)
	}
	// Generations=3: two more rotations push the first generation out.
	s.Rotate(t0.Add(3 * time.Minute))
	if s.Contains(old) {
		t.Error("key survived beyond the generation window")
	}
	if _, ok := s.FirstSeen(old); ok {
		t.Error("FirstSeen answered for an expired key")
	}
	if got := s.Generations(); got != 3 {
		t.Errorf("ring holds %d generations, want 3", got)
	}
}

// TestBytesFlat checks the memory contract: footprint depends on the
// configuration, not on how many distinct sources were observed.
func TestBytesFlat(t *testing.T) {
	s := testSketch(t)
	s.Rotate(t0)
	s.Rotate(t0.Add(time.Minute))
	s.Rotate(t0.Add(2 * time.Minute))
	before := s.Bytes()
	a := netip.MustParseAddr("10.0.0.0").As4()
	for i := 0; i < 10000; i++ {
		a[2], a[3] = byte(i>>8), byte(i)
		s.Observe(netip.PrefixFrom(netip.AddrFrom4(a), 28), 1, t0.Add(2*time.Minute))
	}
	if after := s.Bytes(); after != before {
		t.Errorf("Bytes grew %d -> %d under 10k distinct sources", before, after)
	}
}

// TestDeterministicEncode checks that two sketches fed identically encode
// byte-identically, and that the state round-trips.
func TestDeterministicEncode(t *testing.T) {
	build := func() *Sketch {
		s, _ := New(Config{Width: 64, Depth: 3, Generations: 3, Seed: 7})
		for i := 0; i < 50; i++ {
			a := netip.MustParseAddr("10.1.0.0").As4()
			a[3] = byte(i)
			s.Observe(netip.PrefixFrom(netip.AddrFrom4(a), 28), float64(i%5+1), t0)
		}
		s.Rotate(t0.Add(time.Minute))
		s.Observe(pfx("172.16.0.0/28"), 3, t0.Add(time.Minute))
		return s
	}
	enc1 := persist.NewEncoder(0xF00D, 1)
	build().EncodeState(enc1)
	b1 := enc1.Finish()
	enc2 := persist.NewEncoder(0xF00D, 1)
	build().EncodeState(enc2)
	if !bytes.Equal(b1, enc2.Finish()) {
		t.Fatal("identical feeds encoded differently")
	}

	dec, err := persist.NewDecoder(b1, 0xF00D, 1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeState(dec)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if err := dec.Finish(); err != nil {
		t.Fatal(err)
	}
	enc3 := persist.NewEncoder(0xF00D, 1)
	back.EncodeState(enc3)
	if !bytes.Equal(b1, enc3.Finish()) {
		t.Error("decode→encode round-trip drifted")
	}
	if back.Observes() != 51 {
		t.Errorf("restored observes = %d, want 51", back.Observes())
	}
	if est := back.Estimate(pfx("172.16.0.0/28")); est < 3 {
		t.Errorf("restored estimate %v undercounts", est)
	}
}

// TestSeedChangesHashes guards the seeding: different seeds must place keys
// differently (else a deployment cannot re-key away from an adversary who
// learned the hash layout).
func TestSeedChangesHashes(t *testing.T) {
	s1, _ := New(Config{Width: 64, Depth: 4, Generations: 3, Seed: 1})
	s2, _ := New(Config{Width: 64, Depth: 4, Generations: 3, Seed: 2})
	same := 0
	for i := 0; i < 64; i++ {
		p := pfx(fmt.Sprintf("10.0.%d.0/28", i))
		a1, b1 := s1.hashes(p)
		a2, b2 := s2.hashes(p)
		if a1 == a2 && b1 == b2 {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 keys hash identically under different seeds", same)
	}
}
