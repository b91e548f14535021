// Package trie implements a path-compressed binary prefix trie keyed by
// netip.Prefix with longest-prefix-match lookup.
//
// The trie stores IPv4 and IPv6 entries in two independent trees (the
// families never alias). It is the substrate for the validation LPM tables
// built from IPD output (§5.1 of the paper) and for the BGP RIB. The zero
// value of Trie is not ready to use; call New.
//
// Trie is not safe for concurrent mutation; concurrent readers are safe in
// the absence of writers. The IPD pipeline rebuilds lookup tables per time
// bin and swaps them atomically, so this matches the intended usage.
package trie

import (
	"fmt"
	"net/netip"

	"ipd/internal/netaddr"
)

// node is a path-compressed trie node. Its prefix is the full CIDR range it
// represents; children (when present) are strictly longer prefixes contained
// in it. A node either carries a value (hasVal) or exists purely as a branch
// point.
type node[V any] struct {
	prefix netip.Prefix
	child  [2]*node[V]
	val    V
	hasVal bool
}

// Trie is a longest-prefix-match table from CIDR prefixes to values of
// type V.
type Trie[V any] struct {
	root4 *node[V]
	root6 *node[V]
	len   int
}

// New returns an empty trie.
func New[V any]() *Trie[V] {
	return &Trie[V]{
		root4: &node[V]{prefix: netip.PrefixFrom(netip.IPv4Unspecified(), 0)},
		root6: &node[V]{prefix: netip.PrefixFrom(netip.IPv6Unspecified(), 0)},
	}
}

// Len returns the number of prefixes with values in the trie.
func (t *Trie[V]) Len() int { return t.len }

func (t *Trie[V]) rootFor(p netip.Prefix) *node[V] {
	if p.Addr().Is4() {
		return t.root4
	}
	return t.root6
}

// Insert sets the value for prefix p, replacing any existing value. p is
// masked defensively. Insert panics if p is invalid.
func (t *Trie[V]) Insert(p netip.Prefix, v V) {
	if !p.IsValid() {
		panic(fmt.Sprintf("trie: invalid prefix %v", p))
	}
	p = netip.PrefixFrom(p.Addr().Unmap(), p.Bits()).Masked()
	n := t.insertNode(t.rootFor(p), p)
	if !n.hasVal {
		t.len++
	}
	n.val = v
	n.hasVal = true
}

// insertNode finds or creates the node for p under n (which must contain p)
// and returns it.
func (t *Trie[V]) insertNode(n *node[V], p netip.Prefix) *node[V] {
	for {
		if n.prefix == p {
			return n
		}
		// Descend by the bit just below n's prefix length.
		dir := 0
		if netaddr.BitAt(p.Addr(), n.prefix.Bits()) {
			dir = 1
		}
		c := n.child[dir]
		if c == nil {
			n.child[dir] = &node[V]{prefix: p}
			return n.child[dir]
		}
		if c.prefix.Contains(p.Addr()) && c.prefix.Bits() <= p.Bits() {
			n = c
			continue
		}
		if p.Contains(c.prefix.Addr()) && p.Bits() < c.prefix.Bits() {
			// p sits between n and c: splice a node for p above c.
			nn := &node[V]{prefix: p}
			cdir := 0
			if netaddr.BitAt(c.prefix.Addr(), p.Bits()) {
				cdir = 1
			}
			nn.child[cdir] = c
			n.child[dir] = nn
			return nn
		}
		// Diverge: create a branch node at the common prefix of p and c.
		common := commonPrefix(p, c.prefix)
		branch := &node[V]{prefix: common}
		pdir, cdir := 0, 0
		if netaddr.BitAt(p.Addr(), common.Bits()) {
			pdir = 1
		}
		if netaddr.BitAt(c.prefix.Addr(), common.Bits()) {
			cdir = 1
		}
		// common is a strict ancestor of both and they differ at bit
		// common.Bits(), so pdir != cdir.
		branch.child[cdir] = c
		pn := &node[V]{prefix: p}
		branch.child[pdir] = pn
		n.child[dir] = branch
		return pn
	}
}

// commonPrefix returns the longest prefix containing both a and b (same
// family).
func commonPrefix(a, b netip.Prefix) netip.Prefix {
	bits := a.Bits()
	if b.Bits() < bits {
		bits = b.Bits()
	}
	for i := 0; i < bits; i++ {
		if netaddr.BitAt(a.Addr(), i) != netaddr.BitAt(b.Addr(), i) {
			bits = i
			break
		}
	}
	p, _ := netaddr.Mask(a.Addr(), bits)
	return p
}

// Get returns the value stored exactly at p.
func (t *Trie[V]) Get(p netip.Prefix) (V, bool) {
	var zero V
	if !p.IsValid() {
		return zero, false
	}
	p = netip.PrefixFrom(p.Addr().Unmap(), p.Bits()).Masked()
	n := t.rootFor(p)
	for n != nil {
		if n.prefix == p {
			if n.hasVal {
				return n.val, true
			}
			return zero, false
		}
		if n.prefix.Bits() >= p.Bits() || !n.prefix.Contains(p.Addr()) {
			return zero, false
		}
		dir := 0
		if netaddr.BitAt(p.Addr(), n.prefix.Bits()) {
			dir = 1
		}
		n = n.child[dir]
	}
	return zero, false
}

// Lookup performs a longest-prefix match for addr and returns the most
// specific stored prefix containing it.
func (t *Trie[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	var (
		zero  V
		bestP netip.Prefix
		bestV V
		found bool
	)
	if !addr.IsValid() {
		return bestP, zero, false
	}
	addr = addr.Unmap()
	var n *node[V]
	if addr.Is4() {
		n = t.root4
	} else {
		n = t.root6
	}
	for n != nil && n.prefix.Contains(addr) {
		if n.hasVal {
			bestP, bestV, found = n.prefix, n.val, true
		}
		if n.prefix.Bits() >= netaddr.HostBits(n.prefix) {
			break
		}
		dir := 0
		if netaddr.BitAt(addr, n.prefix.Bits()) {
			dir = 1
		}
		n = n.child[dir]
	}
	return bestP, bestV, found
}

// LookupPrefix performs a longest-prefix match for the *whole* prefix p: the
// most specific stored prefix that contains all of p.
func (t *Trie[V]) LookupPrefix(p netip.Prefix) (netip.Prefix, V, bool) {
	var (
		zero  V
		bestP netip.Prefix
		bestV V
		found bool
	)
	if !p.IsValid() {
		return bestP, zero, false
	}
	p = netip.PrefixFrom(p.Addr().Unmap(), p.Bits()).Masked()
	n := t.rootFor(p)
	for n != nil && n.prefix.Contains(p.Addr()) && n.prefix.Bits() <= p.Bits() {
		if n.hasVal {
			bestP, bestV, found = n.prefix, n.val, true
		}
		if n.prefix.Bits() == p.Bits() {
			break
		}
		dir := 0
		if netaddr.BitAt(p.Addr(), n.prefix.Bits()) {
			dir = 1
		}
		n = n.child[dir]
	}
	return bestP, bestV, found
}

// Walk visits every stored (prefix, value) pair in address order (IPv4 first,
// then IPv6). Returning false from fn stops the walk.
func (t *Trie[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	if !walk(t.root4, fn) {
		return
	}
	walk(t.root6, fn)
}

func walk[V any](n *node[V], fn func(p netip.Prefix, v V) bool) bool {
	if n == nil {
		return true
	}
	if n.hasVal && !fn(n.prefix, n.val) {
		return false
	}
	return walk(n.child[0], fn) && walk(n.child[1], fn)
}
