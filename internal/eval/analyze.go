package eval

import (
	"net/netip"
	"time"

	"ipd/internal/bgp"
	"ipd/internal/core"
	"ipd/internal/flow"
	"ipd/internal/netaddr"
	"ipd/internal/topology"
)

// StabilityTracker measures how long each prefix stays mapped to the same
// ingress across consecutive snapshots — the quantity behind Fig. 2 ("60%
// of prefixes remain stable for < 1 hour") and Fig. 15 (elephant ranges).
// Feed snapshots in time order; completed stable phases accumulate in
// Phases.
type StabilityTracker struct {
	open   map[netaddr.Key]*stablePhase
	phases []StablePhase
	last   time.Time
}

type stablePhase struct {
	ingress flow.Ingress
	since   time.Time
	samples float64
}

// StablePhase is one completed period during which a prefix was continuously
// mapped to one ingress.
type StablePhase struct {
	Prefix   netip.Prefix
	Ingress  flow.Ingress
	Duration time.Duration
	// MaxSamples is the range's peak sample counter during the phase (the
	// §5.4 elephant criterion).
	MaxSamples float64
}

// NewStabilityTracker returns an empty tracker.
func NewStabilityTracker() *StabilityTracker {
	return &StabilityTracker{open: make(map[netaddr.Key]*stablePhase)}
}

// Observe folds in the mapped ranges at time ts. A prefix that disappears or
// changes ingress closes its phase.
func (t *StabilityTracker) Observe(ts time.Time, mapped []core.RangeInfo) {
	seen := make(map[netaddr.Key]bool, len(mapped))
	for _, ri := range mapped {
		k := netaddr.KeyOf(ri.Prefix)
		seen[k] = true
		ph := t.open[k]
		switch {
		case ph == nil:
			t.open[k] = &stablePhase{ingress: ri.Ingress, since: ts, samples: ri.Samples}
		case ph.ingress != ri.Ingress:
			t.close(k, ts)
			t.open[k] = &stablePhase{ingress: ri.Ingress, since: ts, samples: ri.Samples}
		default:
			if ri.Samples > ph.samples {
				ph.samples = ri.Samples
			}
		}
	}
	for k := range t.open {
		if !seen[k] {
			t.close(k, ts)
		}
	}
	t.last = ts
}

func (t *StabilityTracker) close(k netaddr.Key, ts time.Time) {
	ph := t.open[k]
	delete(t.open, k)
	t.phases = append(t.phases, StablePhase{
		Prefix:     k.Prefix(),
		Ingress:    ph.ingress,
		Duration:   ts.Sub(ph.since),
		MaxSamples: ph.samples,
	})
}

// Finish closes all open phases at the last observed time and returns every
// completed phase.
func (t *StabilityTracker) Finish() []StablePhase {
	for k := range t.open {
		t.close(k, t.last)
	}
	return t.phases
}

// PerPrefixMeanDurations returns, per distinct prefix, the mean duration of
// its stable phases in hours — the per-prefix view of Fig. 2 ("stability
// duration per prefix on a link").
func PerPrefixMeanDurations(phases []StablePhase) []float64 {
	sums := make(map[netaddr.Key]float64)
	counts := make(map[netaddr.Key]int)
	for _, p := range phases {
		k := netaddr.KeyOf(p.Prefix)
		sums[k] += p.Duration.Hours()
		counts[k]++
	}
	out := make([]float64, 0, len(sums))
	for k, s := range sums {
		out = append(out, s/float64(counts[k]))
	}
	return out
}

// Durations extracts the phase durations in hours (the Fig. 2 CDF input).
func Durations(phases []StablePhase) []float64 {
	out := make([]float64, len(phases))
	for i, p := range phases {
		out[i] = p.Duration.Hours()
	}
	return out
}

// MatchStableResult compares the mapped address space at two instants
// (§5.3.1): Matching is the fraction of t1's mapped space still mapped at
// t2; Stable the fraction mapped at t2 via the same ingress.
type MatchStableResult struct {
	Matching float64
	Stable   float64
}

// MatchStable implements the §5.3.1 methodology: build an LPM table from the
// t2 prefixes and look up the addresses of each t1 prefix. Each t1 range is
// probed at up to 16 evenly spaced sub-addresses and weighted by its
// address count, which handles arbitrary re-partitioning between t1 and t2.
func MatchStable(t1, t2 []core.RangeInfo) MatchStableResult {
	ents := make([]netaddr.Entry[flow.Ingress], len(t2))
	for i, ri := range t2 {
		ents[i] = netaddr.Entry[flow.Ingress]{Prefix: ri.Prefix, Val: ri.Ingress}
	}
	lpm := netaddr.NewTable(ents)
	var total, matching, stable float64
	for _, ri := range t1 {
		if !ri.Prefix.Addr().Is4() {
			continue
		}
		weight := float64(uint64(1) << uint(32-ri.Prefix.Bits()))
		probes := probeAddrs(ri.Prefix, 16)
		per := weight / float64(len(probes))
		for _, a := range probes {
			total += per
			if _, in, ok := lpm.Lookup(a); ok {
				matching += per
				if in == ri.Ingress {
					stable += per
				}
			}
		}
	}
	if total == 0 {
		return MatchStableResult{}
	}
	return MatchStableResult{Matching: matching / total, Stable: stable / total}
}

// probeAddrs returns up to n evenly spaced addresses inside the IPv4
// prefix p.
func probeAddrs(p netip.Prefix, n int) []netip.Addr {
	span := uint64(1) << uint(32-p.Bits())
	if uint64(n) > span {
		n = int(span)
	}
	out := make([]netip.Addr, 0, n)
	step := span / uint64(n)
	for i := 0; i < n; i++ {
		out = append(out, netaddr.NthAddr(p, uint64(i)*step))
	}
	return out
}

// SpecificityResult counts the §5.5 prefix-alignment cases between mapped
// IPD ranges and BGP prefixes.
type SpecificityResult struct {
	// Exact: the IPD range equals a BGP prefix.
	Exact int
	// MoreSpecific: the IPD range lies strictly inside a BGP prefix.
	MoreSpecific int
	// LessSpecific: the IPD range strictly contains at least one BGP
	// prefix (neighboring BGP prefixes joined into one IPD range).
	LessSpecific int
	// Unrelated: no BGP prefix covers or is covered.
	Unrelated int
}

// Total returns the number of classified ranges considered.
func (r SpecificityResult) Total() int {
	return r.Exact + r.MoreSpecific + r.LessSpecific + r.Unrelated
}

// Specificity categorizes each mapped IPv4 range against the BGP table.
func Specificity(mapped []core.RangeInfo, tb *bgp.Table) SpecificityResult {
	var res SpecificityResult
	for _, ri := range mapped {
		if !ri.Prefix.Addr().Is4() {
			continue
		}
		if route, ok := tb.LookupPrefix(ri.Prefix); ok {
			if route.Prefix.Bits() == ri.Prefix.Bits() {
				res.Exact++
			} else {
				res.MoreSpecific++
			}
			continue
		}
		// No covering BGP prefix: does the range contain one?
		contains := false
		tb.Walk(func(r bgp.Route) bool {
			if ri.Prefix.Contains(r.Prefix.Addr()) && ri.Prefix.Bits() < r.Prefix.Bits() {
				contains = true
				return false
			}
			return true
		})
		if contains {
			res.LessSpecific++
		} else {
			res.Unrelated++
		}
	}
	return res
}

// SymmetryResult is one group's ingress/egress agreement, weighted by the
// address space each range covers (§5.5 compares prefixes, not the many
// small secondary IPD ranges a prefix may shed).
type SymmetryResult struct {
	// Symmetric / Total are address-space weights; Ranges counts the
	// ranges considered.
	Symmetric float64
	Total     float64
	Ranges    int
}

// Ratio returns Symmetric/Total (0 for empty groups).
func (r SymmetryResult) Ratio() float64 {
	if r.Total == 0 {
		return 0
	}
	return r.Symmetric / r.Total
}

// Symmetry compares each mapped range's ingress router with the BGP egress
// router toward that range and aggregates by the group label assigned by
// groupOf (return "" to skip a range). This is the Fig. 16 measurement:
// "assess if ingress and egress routers coincide".
func Symmetry(mapped []core.RangeInfo, tb *bgp.Table, groupOf func(netip.Prefix) []string) map[string]*SymmetryResult {
	out := make(map[string]*SymmetryResult)
	for _, ri := range mapped {
		if !ri.Prefix.Addr().Is4() {
			continue
		}
		groups := groupOf(ri.Prefix)
		if len(groups) == 0 {
			continue
		}
		egress, ok := tb.EgressRouter(ri.Prefix.Addr())
		if !ok {
			continue
		}
		sym := egress == ri.Ingress.Router
		weight := float64(uint64(1) << uint(32-ri.Prefix.Bits()))
		for _, g := range groups {
			r := out[g]
			if r == nil {
				r = &SymmetryResult{}
				out[g] = r
			}
			r.Ranges++
			r.Total += weight
			if sym {
				r.Symmetric += weight
			}
		}
	}
	return out
}

// Violation is a §5.6 finding: a prefix of a settlement-free peer whose
// traffic enters through a link not attached to that peer.
type Violation struct {
	Prefix  netip.Prefix
	Peer    topology.ASN
	Ingress flow.Ingress
	// ViaAS is the neighbor actually attached to the ingress link (0 if
	// unknown).
	ViaAS topology.ASN
	// ViaClass is the ingress link's class.
	ViaClass topology.LinkClass
}

// DetectViolations scans mapped ranges belonging to tier-1 peers (ownership
// resolved via ownerOf) and flags those whose ingress interface is not
// attached to the owning peer. This mirrors §5.6: "traffic from a tier-1 AS
// entering our network through non-peering links may indicate possible
// peering agreement violations".
func DetectViolations(mapped []core.RangeInfo, topo *topology.T,
	ownerOf func(netip.Prefix) (topology.ASN, bool), isTier1 func(topology.ASN) bool) []Violation {
	var out []Violation
	for _, ri := range mapped {
		owner, ok := ownerOf(ri.Prefix)
		if !ok || !isTier1(owner) {
			continue
		}
		itf, ok := topo.Interface(ri.Ingress)
		if ok && itf.Neighbor == owner {
			continue // entered via its own link: fine
		}
		v := Violation{Prefix: ri.Prefix, Peer: owner, Ingress: ri.Ingress}
		if ok {
			v.ViaAS = itf.Neighbor
			v.ViaClass = itf.Class
		}
		out = append(out, v)
	}
	return out
}

// IngressSpread aggregates raw flow records per /24 source prefix: the set
// of distinct logical ingress points and the traffic share of the top one —
// the Fig. 3 (solid curves) and Fig. 4 inputs.
type IngressSpread struct {
	counts map[netaddr.Key]map[flow.Ingress]float64
	topo   *topology.T
}

// NewIngressSpread returns an empty aggregator; topo folds bundles (nil
// disables folding).
func NewIngressSpread(topo *topology.T) *IngressSpread {
	return &IngressSpread{counts: make(map[netaddr.Key]map[flow.Ingress]float64), topo: topo}
}

// Add folds one record (IPv4 only; IPv6 records are ignored).
func (s *IngressSpread) Add(rec flow.Record) {
	src := rec.Src.Unmap()
	if !src.Is4() {
		return
	}
	p, _ := netaddr.Mask(src, 24)
	k := netaddr.KeyOf(p)
	in := rec.In
	if s.topo != nil {
		in = s.topo.Logical(in)
	}
	m := s.counts[k]
	if m == nil {
		m = make(map[flow.Ingress]float64)
		s.counts[k] = m
	}
	m[in]++
}

// PerPrefix is the aggregate for one /24.
type PerPrefix struct {
	Prefix netip.Prefix
	// Ingresses is the number of distinct ingress points observed.
	Ingresses int
	// TopShare is the traffic share of the highest-volume ingress.
	TopShare float64
	// Flows is the total flow count.
	Flows float64
}

// Results returns per-/24 aggregates (unordered).
func (s *IngressSpread) Results() []PerPrefix {
	out := make([]PerPrefix, 0, len(s.counts))
	for k, m := range s.counts {
		var total, top float64
		for _, c := range m {
			total += c
			if c > top {
				top = c
			}
		}
		out = append(out, PerPrefix{
			Prefix:    k.Prefix(),
			Ingresses: len(m),
			TopShare:  top / total,
			Flows:     total,
		})
	}
	return out
}
