package netaddr

import (
	"fmt"
	"net/netip"
	"slices"
)

// Entry is one prefix and its value: the unit a Table is built from.
type Entry[V any] struct {
	Prefix netip.Prefix
	Val    V
}

// Table is an immutable longest-prefix-match table from prefixes of both
// families to values of type V. It serves the §5.1 validation table built
// from IPD output, the BGP RIB and the generator's AS index.
//
// The entries are held in Key order, which is the pre-order walk of the
// binary prefix tree, and each records the nearest entry that contains it.
// A lookup is a predecessor search followed by a walk up those links to the
// first entry that contains the query; on disjoint input the walk is one
// step. Concurrent readers are safe.
type Table[V any] struct {
	ents []tableEntry[V]
}

type tableEntry[V any] struct {
	Entry[V]
	key Key
	up  int // the nearest entry containing this one, -1 for none
}

// NewTable builds a table from entries given in any order. Prefixes are
// masked and 4-in-6 prefixes unmapped; of two entries for the same prefix
// the later one wins. NewTable panics on an invalid prefix.
func NewTable[V any](entries []Entry[V]) *Table[V] {
	ents := make([]tableEntry[V], len(entries))
	for i, e := range entries {
		k, ok := keyFrom(e.Prefix.Addr().Unmap(), e.Prefix.Bits())
		if !ok {
			panic(fmt.Sprintf("netaddr: invalid prefix %v", e.Prefix))
		}
		ents[i] = tableEntry[V]{Entry: Entry[V]{Prefix: k.Prefix(), Val: e.Val}, key: k, up: i}
	}
	// Until linked, up holds the input position: it orders duplicates.
	slices.SortFunc(ents, func(a, b tableEntry[V]) int {
		if c := a.key.compare(b.key); c != 0 {
			return c
		}
		return a.up - b.up
	})
	// In pre-order the entries that contain the next one are the previous
	// entry and the entries it links up to.
	out := ents[:0]
	for i, e := range ents {
		if i+1 < len(ents) && ents[i+1].key == e.key {
			continue
		}
		e.up = len(out) - 1
		for e.up >= 0 && !out[e.up].key.covers(e.key) {
			e.up = out[e.up].up
		}
		out = append(out, e)
	}
	clear(ents[len(out):])
	return &Table[V]{ents: out}
}

// Len returns the number of distinct prefixes in the table.
func (t *Table[V]) Len() int { return len(t.ents) }

// Lookup returns the most specific entry containing addr. 4-in-6 addresses
// are unmapped first; an invalid or zoned address misses, as it does for
// netip.Prefix.Contains.
func (t *Table[V]) Lookup(addr netip.Addr) (netip.Prefix, V, bool) {
	addr = addr.Unmap()
	q, ok := keyFrom(addr, addr.BitLen())
	return t.match(q, ok && addr.Zone() == "")
}

// LookupPrefix returns the most specific entry containing all of p.
func (t *Table[V]) LookupPrefix(p netip.Prefix) (netip.Prefix, V, bool) {
	q, ok := keyFrom(p.Addr().Unmap(), p.Bits())
	return t.match(q, ok)
}

// match walks up from q's predecessor to the first entry covering q.
func (t *Table[V]) match(q Key, valid bool) (netip.Prefix, V, bool) {
	if valid {
		for i := t.pred(q); i >= 0; i = t.ents[i].up {
			if e := &t.ents[i]; e.key.covers(q) {
				return e.Prefix, e.Val, true
			}
		}
	}
	var zero V
	return netip.Prefix{}, zero, false
}

// Get returns the value stored exactly at p.
func (t *Table[V]) Get(p netip.Prefix) (V, bool) {
	q, ok := keyFrom(p.Addr().Unmap(), p.Bits())
	if i := t.pred(q); ok && i >= 0 && t.ents[i].key == q {
		return t.ents[i].Val, true
	}
	var zero V
	return zero, false
}

// Walk visits every entry in Key order (IPv4 first, then IPv6; by address,
// then shorter prefixes first). Returning false from fn stops the walk.
func (t *Table[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	for i := range t.ents {
		if !fn(t.ents[i].Prefix, t.ents[i].Val) {
			return
		}
	}
}

// pred returns the index of the last entry at or before q in Key order, or
// -1 when there is none.
func (t *Table[V]) pred(q Key) int {
	lo, hi := 0, len(t.ents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q.Less(t.ents[m].key) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo - 1
}
