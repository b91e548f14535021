// Package netaddr provides CIDR arithmetic on top of net/netip for the IPD
// range machinery: masking addresses to a maximum prefix length, canonical
// uint128 keys that walk the binary prefix tree (parent, sibling, children),
// and address-count weights.
//
// A Key is a node of the binary tree rooted at the /0 of its address family
// (the "IPD tree" of §3.2 of the paper). IPv4 and IPv6 live in separate
// trees; mixing families is a programming error and is reported via ok=false
// results or panics, as documented per function.
package netaddr

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"net/netip"
)

// HostBits returns the number of bits of the address family of p: 32 for
// IPv4, 128 for IPv6. p must be valid.
func HostBits(p netip.Prefix) int {
	if p.Addr().Is4() {
		return 32
	}
	return 128
}

// Mask returns addr masked (truncated) to length bits, i.e. the CIDR range of
// that length containing addr. 4-in-6 addresses are unmapped to plain IPv4
// first so that the two families never alias. ok is false if addr is invalid
// or bits is out of range for the family.
func Mask(addr netip.Addr, bits int) (netip.Prefix, bool) {
	if !addr.IsValid() {
		return netip.Prefix{}, false
	}
	addr = addr.Unmap()
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, false
	}
	return p, true
}

// BitAt returns bit i (0-based from the most significant bit) of addr.
func BitAt(addr netip.Addr, i int) bool { return bitAt(addr, i) }

func bitAt(addr netip.Addr, i int) bool {
	if addr.Is4() {
		b := addr.As4()
		return b[i/8]&(1<<(7-i%8)) != 0
	}
	b := addr.As16()
	return b[i/8]&(1<<(7-i%8)) != 0
}

// Key is a canonical comparable identifier for a prefix: family, length and
// the masked address bits. It is suitable as a map key and sorts IPv4 before
// IPv6, then by address, then by length.
//
// The address is held left-aligned in 128 bits (an IPv4 address occupies the
// top 32 bits of hi), so bit i of a prefix is bit 127-i of (hi, lo) in both
// families and the tree arithmetic below is family-agnostic.
type Key struct {
	hi, lo uint64
	// bits is the prefix length. uint8, not int8: an IPv6 /128 must
	// round-trip, and 128 overflows int8.
	bits uint8
	v6   bool
}

// KeyOf returns the canonical key for p, masking it defensively. p must be
// valid.
func KeyOf(p netip.Prefix) Key {
	k, _ := keyFrom(p.Addr(), p.Bits())
	return k
}

// KeyFromAddr returns KeyOf(Mask(addr, length)) computed on integers, without
// materialising the prefix: the address is read once and truncated by shift.
func KeyFromAddr(addr netip.Addr, length int) (Key, bool) {
	return keyFrom(addr.Unmap(), length)
}

func keyFrom(addr netip.Addr, length int) (Key, bool) {
	k := Key{bits: uint8(length), v6: addr.Is6()}
	switch {
	case length < 0, length > addr.BitLen(), !addr.IsValid():
		return Key{}, false
	case k.v6:
		b := addr.As16()
		k.hi, k.lo = binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	default:
		b := addr.As4()
		k.hi = uint64(binary.BigEndian.Uint32(b[:])) << 32
	}
	mh, ml := mask128(length)
	k.hi &= mh
	k.lo &= ml
	return k, true
}

// mask128 returns the left-aligned 128-bit netmask of a /length.
func mask128(length int) (hi, lo uint64) {
	// Shifts of 64 or more yield 0 in Go, which is what /0 and /64 need.
	return ^uint64(0) << max(64-length, 0), ^uint64(0) << min(128-length, 64)
}

// bit128 returns the left-aligned 128-bit mask with only bit i set.
func bit128(i int) (hi, lo uint64) {
	if i < 64 {
		return 1 << (63 - i), 0
	}
	return 0, 1 << (127 - i)
}

// Bit returns bit i (0-based from the most significant bit) of k's address.
func (k Key) Bit(i int) bool {
	hi, lo := bit128(i)
	return k.hi&hi|k.lo&lo != 0
}

// Parent returns the key one bit shorter that contains k. ok is false for the
// root (/0).
func (k Key) Parent() (Key, bool) {
	if k.bits == 0 {
		return Key{}, false
	}
	hi, lo := bit128(int(k.bits) - 1)
	return Key{hi: k.hi &^ hi, lo: k.lo &^ lo, bits: k.bits - 1, v6: k.v6}, true
}

// Sibling returns the key that shares k's parent. ok is false for the root.
func (k Key) Sibling() (Key, bool) {
	if k.bits == 0 {
		return Key{}, false
	}
	hi, lo := bit128(int(k.bits) - 1)
	return Key{hi: k.hi ^ hi, lo: k.lo ^ lo, bits: k.bits, v6: k.v6}, true
}

// IsLowChild reports whether k is the 0-bit child of its parent. The root
// reports true.
func (k Key) IsLowChild() bool { return k.bits == 0 || !k.Bit(int(k.bits)-1) }

// Children returns the two keys one bit longer that partition k: the low
// (0-bit) child first, then the high (1-bit) child. ok is false when k is
// already a host route and cannot be split.
func (k Key) Children() (lo, hi Key, ok bool) {
	if k.bits == 128 || (!k.v6 && k.bits == 32) {
		return Key{}, Key{}, false
	}
	bh, bl := bit128(int(k.bits))
	lo = Key{hi: k.hi, lo: k.lo, bits: k.bits + 1, v6: k.v6}
	hi = Key{hi: k.hi | bh, lo: k.lo | bl, bits: k.bits + 1, v6: k.v6}
	return lo, hi, true
}

// V4 returns the start address of an IPv4 key as a uint32.
func (k Key) V4() uint32 { return uint32(k.hi >> 32) }

// Words returns the left-aligned 128-bit start address of k.
func (k Key) Words() (hi, lo uint64) { return k.hi, k.lo }

// Next returns, in Words form, the first address after the range k covers;
// wrapped reports that k ends at the last address of its family.
func (k Key) Next() (hi, lo uint64, wrapped bool) {
	if k.bits == 0 {
		return 0, 0, true
	}
	sh, sl := bit128(int(k.bits) - 1) // the range's size
	lo, c := bits.Add64(k.lo, sl, 0)
	hi, c = bits.Add64(k.hi, sh, c)
	return hi, lo, c != 0
}

// Prefix reconstructs the prefix identified by k.
func (k Key) Prefix() netip.Prefix {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.hi)
	binary.BigEndian.PutUint64(b[8:], k.lo)
	if !k.v6 {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte(b[:4])), int(k.bits))
	}
	return netip.PrefixFrom(netip.AddrFrom16(b), int(k.bits))
}

// Bits returns the prefix length stored in the key.
func (k Key) Bits() int { return int(k.bits) }

// IsIPv6 reports the address family stored in the key.
func (k Key) IsIPv6() bool { return k.v6 }

// Less orders keys: IPv4 before IPv6, then address, then shorter prefixes
// first.
func (k Key) Less(o Key) bool {
	if k.v6 != o.v6 {
		return !k.v6
	}
	if k.hi != o.hi {
		return k.hi < o.hi
	}
	if k.lo != o.lo {
		return k.lo < o.lo
	}
	return k.bits < o.bits
}

// compare returns -1, 0 or +1 as k sorts before, equal to or after o.
func (k Key) compare(o Key) int {
	switch {
	case k == o:
		return 0
	case k.Less(o):
		return -1
	}
	return 1
}

// covers reports whether k's range contains all of o's.
func (k Key) covers(o Key) bool {
	mh, ml := mask128(int(k.bits))
	return k.v6 == o.v6 && k.bits <= o.bits && (k.hi^o.hi)&mh|(k.lo^o.lo)&ml == 0
}

func (k Key) String() string { return k.Prefix().String() }

// AddrCount returns the number of addresses covered by p as a float64 (exact
// for IPv4 and for IPv6 prefixes no wider than /64; IPv6 prefixes shorter
// than /64 saturate, which is fine for weighting purposes).
func AddrCount(p netip.Prefix) float64 {
	host := HostBits(p) - p.Bits()
	if host >= 1024 {
		return math.Inf(1)
	}
	return math.Pow(2, float64(host))
}

// NthAddr returns the address at offset n inside the IPv4 prefix p. It panics
// if p is not IPv4 or n is out of range; generators use it to enumerate
// synthetic clients.
func NthAddr(p netip.Prefix, n uint64) netip.Addr {
	if !p.Addr().Is4() {
		panic("netaddr: NthAddr requires an IPv4 prefix")
	}
	host := 32 - p.Bits()
	if host < 64 && n >= 1<<uint(host) {
		panic(fmt.Sprintf("netaddr: offset %d out of range for %v", n, p))
	}
	b := p.Masked().Addr().As4()
	base := uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	base += n
	return netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base)})
}

// NthSubPrefix returns the n-th sub-prefix of length bits inside the IPv4
// prefix p (n counted from the low end). It panics on family or range
// violations.
func NthSubPrefix(p netip.Prefix, bits int, n uint64) netip.Prefix {
	if bits < p.Bits() || bits > 32 {
		panic(fmt.Sprintf("netaddr: sub-prefix length %d invalid inside %v", bits, p))
	}
	step := uint64(1) << uint(32-bits)
	return netip.PrefixFrom(NthAddr(p, n*step), bits)
}

// SubPrefixCount returns how many sub-prefixes of length bits fit inside the
// IPv4 prefix p.
func SubPrefixCount(p netip.Prefix, bits int) uint64 {
	if bits < p.Bits() || bits > 32 {
		return 0
	}
	return 1 << uint(bits-p.Bits())
}
