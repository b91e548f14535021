// Package bgp models the BGP-derived inputs of the paper's evaluation: a
// routing information base (RIB) with the *candidate* next-hop border
// routers each prefix is announced over (Fig. 3's dotted "BGP paths"
// curves), the selected best path whose next-hop is the *egress* router used
// for the path-(a)symmetry study (§5.5), and periodic table dumps (§4:
// "periodic BGP table dumps from the same period").
//
// The paper's central point — BGP cannot predict ingress — is an input
// property here: the traffic generator assigns actual ingress points
// independently of what this RIB announces, with a controlled overlap.
package bgp

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"time"

	"ipd/internal/flow"
	"ipd/internal/netaddr"
	"ipd/internal/topology"
)

// Route is one RIB entry.
type Route struct {
	// Prefix is the announced prefix.
	Prefix netip.Prefix
	// Origin is the originating AS.
	Origin topology.ASN
	// NextHops are all border routers the prefix is currently announced
	// over (candidate ingress points from BGP's point of view). Sorted,
	// non-empty.
	NextHops []flow.RouterID
	// Best is the selected best path's next-hop router: the router the ISP
	// egresses through for traffic *toward* this prefix.
	Best flow.RouterID
}

func (r Route) validate() error {
	// A 4-in-6 prefix is looked up unmapped, so it must fit IPv4.
	if p := r.Prefix; !p.IsValid() || p.Bits() > p.Addr().Unmap().BitLen() {
		return fmt.Errorf("bgp: invalid prefix in route %+v", r)
	}
	if len(r.NextHops) == 0 {
		return fmt.Errorf("bgp: route for %v has no next hops", r.Prefix)
	}
	for _, nh := range r.NextHops {
		if nh == r.Best {
			return nil
		}
	}
	return fmt.Errorf("bgp: best next-hop %d of %v not among candidates %v", r.Best, r.Prefix, r.NextHops)
}

// Table is a RIB snapshot (one "table dump").
type Table struct {
	// At is the dump timestamp.
	At  time.Time
	rib *netaddr.Table[Route]
}

// NewTable builds the table stamped at from routes. Each route's next hops
// are sorted and de-duplicated; a later route for a prefix replaces an
// earlier one. It fails on the first invalid route.
func NewTable(at time.Time, routes []Route) (*Table, error) {
	ents := make([]netaddr.Entry[Route], len(routes))
	for i, r := range routes {
		nh := slices.Clone(r.NextHops)
		slices.Sort(nh)
		r.NextHops = slices.Compact(nh)
		if err := r.validate(); err != nil {
			return nil, err
		}
		r.Prefix = r.Prefix.Masked()
		ents[i] = netaddr.Entry[Route]{Prefix: r.Prefix, Val: r}
	}
	return &Table{At: at, rib: netaddr.NewTable(ents)}, nil
}

// NumRoutes returns the number of RIB entries.
func (t *Table) NumRoutes() int { return t.rib.Len() }

// LookupAddr returns the best-matching route for addr.
func (t *Table) LookupAddr(addr netip.Addr) (Route, bool) {
	_, r, ok := t.rib.Lookup(addr)
	return r, ok
}

// LookupPrefix returns the most specific route covering all of p.
func (t *Table) LookupPrefix(p netip.Prefix) (Route, bool) {
	_, r, ok := t.rib.LookupPrefix(p)
	return r, ok
}

// Get returns the route stored exactly at p.
func (t *Table) Get(p netip.Prefix) (Route, bool) {
	return t.rib.Get(p)
}

// EgressRouter returns the router the ISP egresses through toward addr.
func (t *Table) EgressRouter(addr netip.Addr) (flow.RouterID, bool) {
	r, ok := t.LookupAddr(addr)
	if !ok {
		return 0, false
	}
	return r.Best, true
}

// Walk visits routes in address order.
func (t *Table) Walk(fn func(Route) bool) {
	t.rib.Walk(func(_ netip.Prefix, r Route) bool { return fn(r) })
}

// Routes returns all routes sorted by prefix.
func (t *Table) Routes() []Route {
	out := make([]Route, 0, t.rib.Len())
	t.Walk(func(r Route) bool {
		out = append(out, r)
		return true
	})
	return out
}

// PrefixesOf returns the prefixes originated by asn, sorted.
func (t *Table) PrefixesOf(asn topology.ASN) []netip.Prefix {
	var out []netip.Prefix
	t.Walk(func(r Route) bool {
		if r.Origin == asn {
			out = append(out, r.Prefix)
		}
		return true
	})
	return out
}

// NextHopCounts returns, for each routed prefix, the number of candidate
// next-hop routers — the input to Fig. 3's dotted curves. The optional
// filter restricts to prefixes of the given origin ASes (nil = all).
func (t *Table) NextHopCounts(origins map[topology.ASN]bool) []int {
	var out []int
	t.Walk(func(r Route) bool {
		if origins == nil || origins[r.Origin] {
			out = append(out, len(r.NextHops))
		}
		return true
	})
	return out
}

// DumpSeries is a time-ordered sequence of table dumps.
type DumpSeries struct {
	tables []*Table
}

// Add appends a dump; dumps must be added in increasing time order.
func (s *DumpSeries) Add(t *Table) error {
	if n := len(s.tables); n > 0 && !s.tables[n-1].At.Before(t.At) {
		return fmt.Errorf("bgp: dump at %v not after previous %v", t.At, s.tables[n-1].At)
	}
	s.tables = append(s.tables, t)
	return nil
}

// Len returns the number of dumps.
func (s *DumpSeries) Len() int { return len(s.tables) }

// At returns the most recent dump taken at or before ts.
func (s *DumpSeries) At(ts time.Time) (*Table, bool) {
	i := sort.Search(len(s.tables), func(i int) bool { return s.tables[i].At.After(ts) })
	if i == 0 {
		return nil, false
	}
	return s.tables[i-1], true
}

// All returns the dumps in time order.
func (s *DumpSeries) All() []*Table { return append([]*Table(nil), s.tables...) }
