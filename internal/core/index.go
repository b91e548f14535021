package core

import (
	"fmt"
	"sort"

	"ipd/internal/netaddr"
)

// rangeIndex is the active partition of §3.2. Active ranges never nest: per
// family they tile the address space, so the ranges sorted by start address
// are the whole structure. Longest-prefix match is predecessor search over
// the starts, and a range's sibling is its neighbour in the slice or it is
// subdivided.
//
// all holds the IPv4 ranges, then the IPv6 ranges, each in address order; k4
// and k6 are their start addresses, the dense keys stage 1 searches, rebuilt
// by rekey after every structural change. Stage 2 changes the structure by
// rewrite (through the reused spare buffer) or by join followed by compact.
type rangeIndex struct {
	all   []*rangeState
	k4    []uint32
	k6    []u128
	spare []*rangeState
	// holes counts the slots join has emptied since the last compact.
	holes int
}

// u128 is a left-aligned 128-bit address (netaddr.Key.Words).
type u128 struct{ hi, lo uint64 }

func (a u128) less(b u128) bool { return a.hi < b.hi || (a.hi == b.hi && a.lo < b.lo) }

// buildIndex indexes ranges, given in any order. It fails, naming the first
// offender, unless the ranges tile both families exactly: no gap, no
// overlap, both ends covered.
func buildIndex(ranges []*rangeState) (*rangeIndex, error) {
	// Key order is IPv4 before IPv6, then ascending address.
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].key.Less(ranges[j].key) })
	n4 := sort.Search(len(ranges), func(i int) bool { return ranges[i].key.IsIPv6() })
	for f, fam := range [][]*rangeState{ranges[:n4], ranges[n4:]} {
		// want is where the next range has to start; covered is set once a
		// range ended at the family's last address.
		var want u128
		var covered bool
		var prev *rangeState
		for _, rs := range fam {
			var start u128
			start.hi, start.lo = rs.key.Words()
			if covered || start.less(want) {
				return nil, fmt.Errorf("core: restore: range %v overlaps %v", rs.prefix, prev.prefix)
			}
			if start != want {
				return nil, fmt.Errorf("core: restore: gap in the partition before range %v", rs.prefix)
			}
			want.hi, want.lo, covered = rs.key.Next()
			prev = rs
		}
		if prev == nil {
			return nil, fmt.Errorf("core: restore: no IPv%d range, the family root is missing", 4+2*f)
		}
		if !covered {
			return nil, fmt.Errorf("core: restore: gap in the partition after range %v", prev.prefix)
		}
	}
	ix := &rangeIndex{all: ranges}
	ix.rekey()
	return ix, nil
}

func (ix *rangeIndex) len() int { return len(ix.all) - ix.holes }

func (ix *rangeIndex) rekey() {
	ix.k4, ix.k6 = ix.k4[:0], ix.k6[:0]
	for _, rs := range ix.all {
		if rs.key.IsIPv6() {
			hi, lo := rs.key.Words()
			ix.k6 = append(ix.k6, u128{hi, lo})
		} else {
			ix.k4 = append(ix.k4, rs.key.V4())
		}
	}
}

// pos returns the slot of the range containing k's start address: the last
// range of k's family starting at or before it. Every family's first start
// is 0, so the predecessor always exists.
func (ix *rangeIndex) pos(k netaddr.Key) int {
	if !k.IsIPv6() {
		a, keys := k.V4(), ix.k4
		return sort.Search(len(keys), func(i int) bool { return keys[i] > a }) - 1
	}
	var a u128
	a.hi, a.lo = k.Words()
	keys := ix.k6
	return len(ix.k4) + sort.Search(len(keys), func(i int) bool { return a.less(keys[i]) }) - 1
}

// lookup is the stage-1 longest-prefix match.
func (ix *rangeIndex) lookup(k netaddr.Key) *rangeState { return ix.all[ix.pos(k)] }

// rewrite replaces every range by what fn appends to out for it, in address
// order, and drops the holes join left. fn must keep the tiling: append the
// range itself, or ranges that together cover exactly the same addresses.
func (ix *rangeIndex) rewrite(fn func(out []*rangeState, rs *rangeState) []*rangeState) {
	out := ix.spare[:0]
	for _, rs := range ix.all {
		if rs != nil {
			out = fn(out, rs)
		}
	}
	clear(ix.all) // the spare must not keep replaced ranges alive
	ix.all, ix.spare, ix.holes = out, ix.all, 0
	ix.rekey()
}

// compact squeezes out the holes join left.
func (ix *rangeIndex) compact() {
	if ix.holes > 0 {
		ix.rewrite(func(out []*rangeState, rs *rangeState) []*rangeState { return append(out, rs) })
	}
}

// siblingPairs calls fn for every two neighbours, at slots i and i+1, that
// are the low and the high child of one parent, in address order. fn may join
// the pair it is given; pairs are disjoint, so the scan continues behind it.
// Lookups and a second scan need a compact first.
func (ix *rangeIndex) siblingPairs(fn func(i int, lo, hi *rangeState)) {
	for i := 0; i+1 < len(ix.all); i++ {
		lo, hi := ix.all[i], ix.all[i+1]
		if sib, ok := lo.key.Sibling(); ok && sib == hi.key && lo.key.IsLowChild() {
			fn(i, lo, hi)
			i++
		}
	}
}

// join replaces the sibling pair at slots i and i+1 by their parent, leaving
// a hole for compact.
func (ix *rangeIndex) join(i int, parent *rangeState) {
	ix.all[i], ix.all[i+1] = parent, nil
	ix.holes++
}
