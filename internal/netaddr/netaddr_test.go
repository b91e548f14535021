package netaddr

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

// The netip-based tree walk below is the reference the Key methods are
// checked against: it does the same arithmetic on address bytes.

// Parent returns the prefix one bit shorter that contains p. ok is false for
// the root (/0).
func Parent(p netip.Prefix) (netip.Prefix, bool) {
	if p.Bits() == 0 {
		return netip.Prefix{}, false
	}
	pp, err := p.Addr().Prefix(p.Bits() - 1)
	if err != nil {
		return netip.Prefix{}, false
	}
	return pp, true
}

// Children returns the two prefixes one bit longer that partition p: the
// low (0-bit) child first, then the high (1-bit) child. ok is false when p is
// already a host route and cannot be split.
func Children(p netip.Prefix) (lo, hi netip.Prefix, ok bool) {
	bits := p.Bits()
	if bits >= HostBits(p) {
		return netip.Prefix{}, netip.Prefix{}, false
	}
	lo = netip.PrefixFrom(p.Addr(), bits+1)
	hiAddr := setBit(p.Addr(), bits)
	hi = netip.PrefixFrom(hiAddr, bits+1)
	return lo, hi, true
}

// Sibling returns the prefix that shares p's parent. ok is false for the
// root.
func Sibling(p netip.Prefix) (netip.Prefix, bool) {
	if p.Bits() == 0 {
		return netip.Prefix{}, false
	}
	return netip.PrefixFrom(flipBit(p.Addr(), p.Bits()-1), p.Bits()), true
}

// IsLowChild reports whether p is the 0-bit child of its parent. The root
// reports true.
func IsLowChild(p netip.Prefix) bool {
	if p.Bits() == 0 {
		return true
	}
	return !bitAt(p.Addr(), p.Bits()-1)
}

func setBit(addr netip.Addr, i int) netip.Addr {
	if addr.Is4() {
		b := addr.As4()
		b[i/8] |= 1 << (7 - i%8)
		return netip.AddrFrom4(b)
	}
	b := addr.As16()
	b[i/8] |= 1 << (7 - i%8)
	return netip.AddrFrom16(b)
}

func flipBit(addr netip.Addr, i int) netip.Addr {
	if addr.Is4() {
		b := addr.As4()
		b[i/8] ^= 1 << (7 - i%8)
		return netip.AddrFrom4(b)
	}
	b := addr.As16()
	b[i/8] ^= 1 << (7 - i%8)
	return netip.AddrFrom16(b)
}

func mustPrefix(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func TestMask(t *testing.T) {
	cases := []struct {
		addr string
		bits int
		want string
	}{
		{"192.168.17.42", 24, "192.168.17.0/24"},
		{"192.168.17.42", 28, "192.168.17.32/28"},
		{"192.168.17.42", 0, "0.0.0.0/0"},
		{"10.0.0.1", 8, "10.0.0.0/8"},
		{"2001:db8::1", 48, "2001:db8::/48"},
		{"2001:db8:ffff::1", 32, "2001:db8::/32"},
	}
	for _, c := range cases {
		got, ok := Mask(netip.MustParseAddr(c.addr), c.bits)
		if !ok {
			t.Fatalf("Mask(%s,%d) not ok", c.addr, c.bits)
		}
		if got != mustPrefix(t, c.want) {
			t.Errorf("Mask(%s,%d) = %v, want %v", c.addr, c.bits, got, c.want)
		}
	}
}

func TestMaskUnmaps4In6(t *testing.T) {
	a := netip.AddrFrom16(netip.MustParseAddr("::ffff:192.0.2.9").As16())
	p, ok := Mask(a, 24)
	if !ok || p != mustPrefix(t, "192.0.2.0/24") {
		t.Fatalf("Mask(4-in-6) = %v ok=%v, want 192.0.2.0/24", p, ok)
	}
}

func TestMaskInvalid(t *testing.T) {
	if _, ok := Mask(netip.Addr{}, 24); ok {
		t.Error("Mask(zero addr) should fail")
	}
	if _, ok := Mask(netip.MustParseAddr("1.2.3.4"), 33); ok {
		t.Error("Mask(v4, 33) should fail")
	}
	if _, ok := Mask(netip.MustParseAddr("1.2.3.4"), -1); ok {
		t.Error("Mask(v4, -1) should fail")
	}
}

func TestParentChildrenRoundTrip(t *testing.T) {
	p := mustPrefix(t, "203.0.112.0/20")
	lo, hi, ok := Children(p)
	if !ok {
		t.Fatal("Children not ok")
	}
	if lo != mustPrefix(t, "203.0.112.0/21") || hi != mustPrefix(t, "203.0.120.0/21") {
		t.Fatalf("Children = %v, %v", lo, hi)
	}
	for _, c := range []netip.Prefix{lo, hi} {
		pp, ok := Parent(c)
		if !ok || pp != p {
			t.Errorf("Parent(%v) = %v ok=%v, want %v", c, pp, ok, p)
		}
	}
	if s, ok := Sibling(lo); !ok || s != hi {
		t.Errorf("Sibling(%v) = %v, want %v", lo, s, hi)
	}
	if s, ok := Sibling(hi); !ok || s != lo {
		t.Errorf("Sibling(%v) = %v, want %v", hi, s, lo)
	}
	if !IsLowChild(lo) || IsLowChild(hi) {
		t.Errorf("IsLowChild(%v)=%v IsLowChild(%v)=%v", lo, IsLowChild(lo), hi, IsLowChild(hi))
	}
}

func TestRootEdgeCases(t *testing.T) {
	root := mustPrefix(t, "0.0.0.0/0")
	if _, ok := Parent(root); ok {
		t.Error("Parent(/0) should fail")
	}
	if _, ok := Sibling(root); ok {
		t.Error("Sibling(/0) should fail")
	}
	if !IsLowChild(root) {
		t.Error("IsLowChild(/0) should be true")
	}
	host := mustPrefix(t, "1.2.3.4/32")
	if _, _, ok := Children(host); ok {
		t.Error("Children(/32) should fail")
	}
	host6 := mustPrefix(t, "2001:db8::1/128")
	if _, _, ok := Children(host6); ok {
		t.Error("Children(/128) should fail")
	}
}

func TestChildrenIPv6(t *testing.T) {
	p := mustPrefix(t, "2001:db8::/32")
	lo, hi, ok := Children(p)
	if !ok {
		t.Fatal("Children(v6) not ok")
	}
	if lo != mustPrefix(t, "2001:db8::/33") || hi != mustPrefix(t, "2001:db8:8000::/33") {
		t.Fatalf("Children(v6) = %v, %v", lo, hi)
	}
}

func randomPrefix4(r *rand.Rand) netip.Prefix {
	var b [4]byte
	r.Read(b[:])
	bits := r.Intn(33)
	return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
}

func randomPrefix6(r *rand.Rand) netip.Prefix {
	var b [16]byte
	r.Read(b[:])
	bits := r.Intn(129)
	return netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
}

func TestPropertySplitPartition(t *testing.T) {
	// The two children of any splittable prefix must partition it: both are
	// contained, they do not overlap, and their parent is the original.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		var p netip.Prefix
		if i%2 == 0 {
			p = randomPrefix4(r)
		} else {
			p = randomPrefix6(r)
		}
		lo, hi, ok := Children(p)
		if !ok {
			continue
		}
		if !p.Contains(lo.Addr()) || !p.Contains(hi.Addr()) {
			t.Fatalf("children of %v escape parent: %v %v", p, lo, hi)
		}
		if lo.Overlaps(hi) {
			t.Fatalf("children of %v overlap: %v %v", p, lo, hi)
		}
		if pp, _ := Parent(lo); pp != p {
			t.Fatalf("Parent(lo(%v)) = %v", p, pp)
		}
		if pp, _ := Parent(hi); pp != p {
			t.Fatalf("Parent(hi(%v)) = %v", p, pp)
		}
	}
}

// TestKeyRoundTripHostRoutes pins the boundary cases the property test only
// hits probabilistically: an IPv6 /128 used to overflow the key's prefix
// length field (int8) and reconstruct as an invalid prefix.
func TestKeyRoundTripHostRoutes(t *testing.T) {
	for _, s := range []string{
		"2001:db8::1/128", "::/128", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128",
		"2001:db8::/127", "255.255.255.255/32", "0.0.0.0/0", "::/0",
	} {
		p := netip.MustParsePrefix(s)
		if got := KeyOf(p).Prefix(); got != p {
			t.Errorf("KeyOf(%v).Prefix() = %v, want %v", p, got, p)
		}
	}
}

func TestPropertyKeyRoundTrip(t *testing.T) {
	f := func(a, b, c, d byte, bitsRaw uint8) bool {
		bits := int(bitsRaw) % 33
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, c, d}), bits).Masked()
		return KeyOf(p).Prefix() == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(raw [16]byte, bitsRaw uint8) bool {
		bits := int(bitsRaw) % 129
		p := netip.PrefixFrom(netip.AddrFrom16(raw), bits).Masked()
		return KeyOf(p).Prefix() == p
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderingAndFamily(t *testing.T) {
	k4 := KeyOf(mustPrefix(t, "255.255.255.255/32"))
	k6 := KeyOf(mustPrefix(t, "::/0"))
	if !k4.Less(k6) || k6.Less(k4) {
		t.Error("IPv4 keys must sort before IPv6 keys")
	}
	a := KeyOf(mustPrefix(t, "10.0.0.0/8"))
	b := KeyOf(mustPrefix(t, "10.0.0.0/9"))
	if !a.Less(b) {
		t.Error("shorter prefix must sort before longer at same address")
	}
	if a.Bits() != 8 || b.Bits() != 9 {
		t.Errorf("Bits: got %d, %d", a.Bits(), b.Bits())
	}
	if a.IsIPv6() || !k6.IsIPv6() {
		t.Error("IsIPv6 mismatch")
	}
	if a.String() != "10.0.0.0/8" {
		t.Errorf("String = %q", a.String())
	}
}

func TestKeyDistinguishesFamilies(t *testing.T) {
	// 0.0.0.0/0 and ::/0 must not collide.
	if KeyOf(mustPrefix(t, "0.0.0.0/0")) == KeyOf(mustPrefix(t, "::/0")) {
		t.Error("v4 and v6 roots collide")
	}
}

func TestAddrCount(t *testing.T) {
	if got := AddrCount(mustPrefix(t, "10.0.0.0/8")); got != 1<<24 {
		t.Errorf("AddrCount(/8) = %v", got)
	}
	if got := AddrCount(mustPrefix(t, "1.2.3.4/32")); got != 1 {
		t.Errorf("AddrCount(/32) = %v", got)
	}
	if got := AddrCount(mustPrefix(t, "2001:db8::/64")); got != 1.8446744073709552e19 {
		t.Errorf("AddrCount(v6 /64) = %v", got)
	}
}

func TestNthAddrAndSubPrefix(t *testing.T) {
	p := mustPrefix(t, "198.51.100.0/24")
	if got := NthAddr(p, 0); got != netip.MustParseAddr("198.51.100.0") {
		t.Errorf("NthAddr 0 = %v", got)
	}
	if got := NthAddr(p, 255); got != netip.MustParseAddr("198.51.100.255") {
		t.Errorf("NthAddr 255 = %v", got)
	}
	if got := NthSubPrefix(p, 28, 3); got != mustPrefix(t, "198.51.100.48/28") {
		t.Errorf("NthSubPrefix = %v", got)
	}
	if got := SubPrefixCount(p, 28); got != 16 {
		t.Errorf("SubPrefixCount = %d", got)
	}
	if got := SubPrefixCount(p, 20); got != 0 {
		t.Errorf("SubPrefixCount(too short) = %d", got)
	}
}

func TestNthAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NthAddr out of range should panic")
		}
	}()
	NthAddr(mustPrefix(t, "198.51.100.0/24"), 256)
}

func TestHostBits(t *testing.T) {
	if HostBits(mustPrefix(t, "1.0.0.0/8")) != 32 {
		t.Error("HostBits v4")
	}
	if HostBits(mustPrefix(t, "2001:db8::/32")) != 128 {
		t.Error("HostBits v6")
	}
}

func TestBitAt(t *testing.T) {
	a := netip.MustParseAddr("128.0.0.1")
	if !BitAt(a, 0) {
		t.Error("bit 0 of 128.0.0.1 should be set")
	}
	if BitAt(a, 1) {
		t.Error("bit 1 of 128.0.0.1 should be clear")
	}
	if !BitAt(a, 31) {
		t.Error("bit 31 of 128.0.0.1 should be set")
	}
	a6 := netip.MustParseAddr("8000::")
	if !BitAt(a6, 0) {
		t.Error("bit 0 of 8000:: should be set")
	}
}

// checkIntegerForms asserts that every integer form on Key agrees with its
// netip-based counterpart for addr masked to length.
func checkIntegerForms(t *testing.T, addr netip.Addr, length int) {
	t.Helper()
	p, pok := Mask(addr, length)
	k, kok := KeyFromAddr(addr, length)
	if pok != kok {
		t.Fatalf("KeyFromAddr(%v,%d) ok=%v, Mask ok=%v", addr, length, kok, pok)
	}
	if !pok {
		return
	}
	if k != KeyOf(p) || k.Prefix() != p {
		t.Fatalf("KeyFromAddr(%v,%d) = %v, want %v", addr, length, k, p)
	}
	if k.IsLowChild() != IsLowChild(p) {
		t.Errorf("%v: IsLowChild = %v", p, k.IsLowChild())
	}
	pp, pok := Parent(p)
	kp, kok := k.Parent()
	if pok != kok || (pok && kp != KeyOf(pp)) {
		t.Errorf("%v: Parent = %v,%v want %v,%v", p, kp, kok, pp, pok)
	}
	sp, pok := Sibling(p)
	ks, kok := k.Sibling()
	if pok != kok || (pok && ks != KeyOf(sp)) {
		t.Errorf("%v: Sibling = %v,%v want %v,%v", p, ks, kok, sp, pok)
	}
	lo, hi, pok := Children(p)
	klo, khi, kok := k.Children()
	if pok != kok || (pok && (klo != KeyOf(lo) || khi != KeyOf(hi))) {
		t.Errorf("%v: Children = %v,%v,%v want %v,%v,%v", p, klo, khi, kok, lo, hi, pok)
	}
	for _, i := range []int{0, length / 2, HostBits(p) - 1} {
		if k.Bit(i) != BitAt(p.Addr(), i) {
			t.Errorf("%v: Bit(%d) = %v", p, i, k.Bit(i))
		}
	}
	// Next is the start of whatever follows p: one past its last address.
	nh, nl, wrapped := k.Next()
	last := p.Addr()
	for i := length; i < HostBits(p); i++ {
		last = setBit(last, i)
	}
	if next := last.Next(); next.IsValid() == wrapped {
		t.Errorf("%v: Next wrapped = %v, address after %v is %v", p, wrapped, last, next)
	} else if nk, _ := KeyFromAddr(next, HostBits(p)); !wrapped && (nk.hi != nh || nk.lo != nl) {
		t.Errorf("%v: Next = %x:%x, want %v", p, nh, nl, next)
	}
	if hi, lo := k.Words(); hi != k.hi || lo != k.lo || (!k.IsIPv6() && uint64(k.V4())<<32 != hi) {
		t.Errorf("%v: Words/V4 disagree with the key", p)
	}
}

func TestIntegerFormsTable(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "255.255.255.255", "10.1.2.3", "128.0.0.0", "127.255.255.255",
		"::", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff", "2001:db8:0:1::1", "8000::", "::ffff:10.1.2.3",
		"0:0:0:1::", "0:0:0:0:8000::", "7fff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"} {
		addr := netip.MustParseAddr(s)
		for length := -1; length <= 129; length++ {
			checkIntegerForms(t, addr, length)
		}
	}
	if _, ok := KeyFromAddr(netip.Addr{}, 0); ok {
		t.Error("KeyFromAddr accepted the zero Addr")
	}
}

// TestPropertyIntegerForms quick-checks the integer forms against the netip
// ones for random IPv4 and IPv6 addresses at every prefix length.
func TestPropertyIntegerForms(t *testing.T) {
	f := func(b [16]byte) bool {
		v4 := netip.AddrFrom4([4]byte(b[:4]))
		for length := 0; length <= 32; length++ {
			checkIntegerForms(t, v4, length)
		}
		v6 := netip.AddrFrom16(b)
		for length := 0; length <= 128; length++ {
			checkIntegerForms(t, v6, length)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}
