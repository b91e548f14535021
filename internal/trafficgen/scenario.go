// Package trafficgen synthesizes the tier-1 ISP workload that the paper's
// deployment measured: sampled flow records from all border routers with the
// statistical structure the evaluation depends on — a Zipf AS mix (TOP5 ≈
// 52% / TOP20 ≈ 80% of volume, §5.1), diurnal load, CDN user→server
// remapping at fine granularity (§5.3), maintenance events and router-level
// load balancing (§5.1.2/§5.8), indirect-entry episodes for the peering-
// violation study (§5.6), and a BGP view whose announced paths and selected
// egress are deliberately decoupled from actual ingress (§2, §5.5).
//
// Every choice is a deterministic function of (scenario seed, address,
// time), so the ground-truth ingress of any address at any instant can be
// recomputed exactly — this is what stands in for the paper's "compare
// against the original Netflow" validation.
package trafficgen

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/netip"
	"sort"
	"time"

	"ipd/internal/flow"
	"ipd/internal/netaddr"
	"ipd/internal/topology"
)

// Profile describes an AS's traffic/mapping behaviour.
type Profile uint8

const (
	// ProfileCDN maps users to servers at fine granularity and remaps on a
	// short cadence; mappings consolidate at night (Fig. 12).
	ProfileCDN Profile = iota
	// ProfileCloud is a hyperscaler with stable, coarse mappings.
	ProfileCloud
	// ProfileEyeball is an access network: very stable ingress (the
	// source of the paper's long-stable "elephant ranges", §5.4).
	ProfileEyeball
	// ProfileTransit is a transit/tier-1 backbone with moderately stable
	// ingress.
	ProfileTransit
)

func (p Profile) String() string {
	switch p {
	case ProfileCDN:
		return "cdn"
	case ProfileCloud:
		return "cloud"
	case ProfileEyeball:
		return "eyeball"
	case ProfileTransit:
		return "transit"
	}
	return fmt.Sprintf("Profile(%d)", uint8(p))
}

// AS is one neighbor AS sending traffic into the ISP.
type AS struct {
	// ASN is the AS number (synthetic, 64500+).
	ASN topology.ASN
	// Name is a human label ("AS1".."ASn" in paper order: AS1..AS5 are the
	// TOP5 by volume).
	Name string
	// Profile selects the mapping behaviour.
	Profile Profile
	// Weight is the AS's share of total flow volume; weights over all ASes
	// sum to 1.
	Weight float64
	// Prefixes are the AS's announced (and traffic-sourcing) IPv4
	// prefixes; Prefixes6 the IPv6 ones (empty for v4-only ASes).
	Prefixes  []netip.Prefix
	Prefixes6 []netip.Prefix
	// UnitBits is the granularity of the AS's ground-truth user→ingress
	// mapping (e.g. /28 for a CDN that maps data centers to /28 subnets);
	// UnitBits6 the IPv6 twin (deployment cidr_max6 is /48).
	UnitBits  int
	UnitBits6 int
	// Links are the border interfaces the AS is attached to (its possible
	// legitimate ingress points).
	Links []flow.Ingress
	// RemapPeriod is the cadence at which mapping units re-roll their
	// ingress (0 = static mapping).
	RemapPeriod time.Duration
	// RemapFraction is the fraction of mapping *blocks* that participate
	// in re-rolling (the rest stay pinned to their base ingress).
	RemapFraction float64
	// DeviantFraction is the share of units that ignore their block's
	// mapping and follow a churnier unit-level mapping of their own — the
	// residual-miss source of §5.1.2.
	DeviantFraction float64
	// Tier1 marks settlement-free tier-1 peers (the §5.6 population).
	Tier1 bool
	// LoadBalanced marks router-level load balancing across the first two
	// links: each flow picks one pseudo-randomly. IPD intentionally cannot
	// classify these (§5.8).
	LoadBalanced bool
	// SymmetryProb is the probability that BGP's selected egress router
	// for a prefix coincides with its dominant ingress router (§5.5:
	// tier-1 ≈ 0.91, TOP5 ≈ 0.77, rest lower).
	SymmetryProb float64
	// ViolationVia, for tier-1 ASes, is the non-peering ingress their
	// violating traffic enters through during §5.6 episodes.
	ViolationVia flow.Ingress
}

// Scenario is a fully materialized synthetic world: topology, neighbor
// ASes, ground-truth mapping dynamics, and scheduled events.
type Scenario struct {
	// Topo is the ISP topology (routers, PoPs, bundles, link classes).
	Topo *topology.T
	// ASes in declining volume order (ASes[0] is "AS1").
	ASes []*AS
	// Start is the scenario epoch (events and diurnal phase are relative
	// to it, local time = UTC).
	Start time.Time

	// Maintenance windows (interface traffic temporarily moved).
	Maintenance []Maintenance

	byAddr *netaddr.Table[*AS]
	byASN  map[topology.ASN]*AS
	seed   uint64

	// violationBase is the baseline fraction of tier-1 units entering via
	// non-peering links; it grows over time per the Fig. 17 trend.
	violationBase float64
}

// Maintenance models a router/interface maintenance window: traffic that
// would enter via Target enters via Replacement instead (the §5.1.2 "AS1"
// story: bundle interfaces swapped during an upgrade).
type Maintenance struct {
	Target      flow.Ingress
	Replacement flow.Ingress
	From, To    time.Time
	// Fraction is the share of the target's mapping units that are
	// diverted (a partial interface swap, as in the paper's AS1 incident:
	// the bulk of the traffic keeps entering the expected bundle, so the
	// classification survives and the diverted flows stay misses for the
	// whole window).
	Fraction float64
}

// Covers reports whether ts falls inside the window.
func (m Maintenance) Covers(ts time.Time) bool {
	return !ts.Before(m.From) && ts.Before(m.To)
}

// Spec parameterizes scenario construction.
type Spec struct {
	// Topology is the ISP footprint spec.
	Topology topology.Spec
	// Start is the scenario epoch.
	Start time.Time
	// Seed drives every random choice.
	Seed int64
	// ContentASes is the number of non-tier-1 neighbor ASes (>= 5).
	ContentASes int
	// Tier1Peers is the number of settlement-free tier-1 peers (§5.6
	// monitors 16).
	Tier1Peers int
}

// DefaultSpec is the laptop-scale default: 20 content ASes + 16 tier-1
// peers on the default topology, starting 2018-01-01 (the paper's output
// archive begins in 2018).
func DefaultSpec() Spec {
	return Spec{
		Topology:    topology.DefaultSpec(),
		Start:       time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC),
		Seed:        1,
		ContentASes: 20,
		Tier1Peers:  16,
	}
}

// NewScenario materializes a spec.
func NewScenario(spec Spec) (*Scenario, error) {
	if spec.ContentASes < 5 {
		return nil, fmt.Errorf("trafficgen: need >= 5 content ASes, got %d", spec.ContentASes)
	}
	if spec.Tier1Peers < 0 {
		return nil, fmt.Errorf("trafficgen: negative Tier1Peers")
	}
	if spec.Start.IsZero() {
		return nil, fmt.Errorf("trafficgen: zero Start")
	}
	topo, err := topology.Build(spec.Topology)
	if err != nil {
		return nil, err
	}
	s := &Scenario{
		Topo:          topo,
		Start:         spec.Start,
		byASN:         make(map[topology.ASN]*AS),
		seed:          uint64(spec.Seed),
		violationBase: 0.09, // ~9% of tier-1 prefixes enter indirectly (§5.6)
	}
	if err := s.populate(spec); err != nil {
		return nil, err
	}
	return s, nil
}

// asWeights produces the volume shares: AS1..AS5 sum to 0.52 (paper: TOP5 =
// 52%), AS6..AS20 bring the cumulative to 0.80 (TOP20 = 80%), and the
// remainder (including the tier-1 peers) shares the last 0.20.
func asWeights(content, tier1 int) []float64 {
	top5 := []float64{0.16, 0.12, 0.10, 0.08, 0.06}
	weights := append([]float64(nil), top5...)
	// AS6..AS20: declining shares summing to 0.28.
	n620 := 15
	if content < 20 {
		n620 = content - 5
	}
	if n620 > 0 {
		total := 0.0
		raw := make([]float64, n620)
		for i := range raw {
			raw[i] = 1 / float64(i+2)
			total += raw[i]
		}
		for i := range raw {
			weights = append(weights, 0.28*raw[i]/total)
		}
	}
	// Remaining content ASes + tier-1 peers share 0.20.
	rest := content - len(weights) + tier1
	if rest > 0 {
		total := 0.0
		raw := make([]float64, rest)
		for i := range raw {
			raw[i] = 1 / float64(i+3)
			total += raw[i]
		}
		for i := range raw {
			weights = append(weights, 0.20*raw[i]/total)
		}
	}
	return weights
}

func (s *Scenario) populate(spec Spec) error {
	rng := newSplitMix(uint64(spec.Seed) ^ 0xa5a5a5a5)
	ifaces := s.Topo.Interfaces()
	if len(ifaces) < 16 {
		return fmt.Errorf("trafficgen: topology too small (%d interfaces)", len(ifaces))
	}
	weights := asWeights(spec.ContentASes, spec.Tier1Peers)
	nAS := spec.ContentASes + spec.Tier1Peers
	if nAS > 200 {
		return fmt.Errorf("trafficgen: too many ASes (%d), base /8 allocation supports 200", nAS)
	}

	// pickLinks selects n interfaces, preferring distinct routers,
	// deterministically.
	used := make(map[flow.Ingress]bool)
	pickLinks := func(n int, class topology.LinkClass, asn topology.ASN) []flow.Ingress {
		var out []flow.Ingress
		seenRouter := make(map[flow.RouterID]bool)
		for attempt := 0; attempt < 10*len(ifaces) && len(out) < n; attempt++ {
			itf := ifaces[int(rng.next()%uint64(len(ifaces)))]
			if used[itf.In] || seenRouter[itf.In.Router] {
				continue
			}
			used[itf.In] = true
			seenRouter[itf.In.Router] = true
			_ = s.Topo.AttachNeighbor(itf.In, asn, class)
			out = append(out, itf.In)
		}
		// Relax the distinct-router preference if the topology ran out.
		for attempt := 0; attempt < 10*len(ifaces) && len(out) < n; attempt++ {
			itf := ifaces[int(rng.next()%uint64(len(ifaces)))]
			if used[itf.In] {
				continue
			}
			used[itf.In] = true
			_ = s.Topo.AttachNeighbor(itf.In, asn, class)
			out = append(out, itf.In)
		}
		sort.Slice(out, func(i, j int) bool { return lessIngress(out[i], out[j]) })
		return out
	}

	// pickPairedLinks selects `pairs` routers and two interfaces on each.
	pickPairedLinks := func(pairs int, class topology.LinkClass, asn topology.ASN) []flow.Ingress {
		var out []flow.Ingress
		seenRouter := make(map[flow.RouterID]bool)
		for attempt := 0; attempt < 20*len(ifaces) && len(out) < 2*pairs; attempt++ {
			itf := ifaces[int(rng.next()%uint64(len(ifaces)))]
			if used[itf.In] || seenRouter[itf.In.Router] {
				continue
			}
			// Find a free sibling interface on the same router.
			var sib *topology.Interface
			for j := range ifaces {
				cand := ifaces[j]
				if cand.In.Router == itf.In.Router && cand.In != itf.In && !used[cand.In] && cand.Bundle == 0 && itf.Bundle == 0 {
					sib = &ifaces[j]
					break
				}
			}
			if sib == nil {
				continue
			}
			seenRouter[itf.In.Router] = true
			used[itf.In], used[sib.In] = true, true
			_ = s.Topo.AttachNeighbor(itf.In, asn, class)
			_ = s.Topo.AttachNeighbor(sib.In, asn, class)
			out = append(out, itf.In, sib.In)
		}
		sort.Slice(out, func(i, j int) bool { return lessIngress(out[i], out[j]) })
		return out
	}

	var byAddr []netaddr.Entry[*AS]
	for i := 0; i < nAS; i++ {
		asn := topology.ASN(64500 + i)
		a := &AS{
			ASN:    asn,
			Name:   fmt.Sprintf("AS%d", i+1),
			Weight: weights[i],
		}
		tier1Start := spec.ContentASes
		switch {
		case i == 0: // AS1: CDN behind PNI links incl. a bundled router.
			a.Profile = ProfileCDN
			a.UnitBits = 28
			a.RemapPeriod = 30 * time.Minute
			a.RemapFraction = 0.55
			a.DeviantFraction = 0.02
			a.SymmetryProb = 0.80
			// Two routers with two parallel interfaces each: AS1's remap
			// flips land on a sibling interface of the same router, which
			// is why its residual misses are interface misses (§5.1.2).
			a.Links = pickPairedLinks(2, topology.LinkPNI, asn)
		case i == 1: // AS2: stable cloud.
			a.Profile = ProfileCloud
			a.UnitBits = 24
			a.RemapPeriod = 6 * time.Hour
			a.RemapFraction = 0.15
			a.DeviantFraction = 0.01
			a.SymmetryProb = 0.80
			a.Links = pickLinks(3, topology.LinkPNI, asn)
		case i == 2: // AS3: CDN with cross-country mapping churn (PoP misses).
			a.Profile = ProfileCDN
			a.UnitBits = 26
			a.RemapPeriod = 15 * time.Minute
			a.RemapFraction = 0.5
			a.DeviantFraction = 0.05
			a.SymmetryProb = 0.75
			a.Links = pickLinks(6, topology.LinkPNI, asn)
		case i == 3: // AS4: CDN with large prefixes and strong diurnal remaps.
			a.Profile = ProfileCDN
			a.UnitBits = 24
			a.RemapPeriod = time.Hour
			a.RemapFraction = 0.6
			a.DeviantFraction = 0.03
			a.SymmetryProb = 0.75
			a.Links = pickLinks(5, topology.LinkPNI, asn)
		case i == 4: // AS5: stable hypergiant cloud.
			a.Profile = ProfileCloud
			a.UnitBits = 24
			a.RemapPeriod = 12 * time.Hour
			a.RemapFraction = 0.1
			a.DeviantFraction = 0.01
			a.SymmetryProb = 0.7
			a.Links = pickLinks(3, topology.LinkPNI, asn)
		case i < tier1Start: // other content ASes
			if i == 11 {
				// The §5.8 operational incident: a directly connected
				// hypergiant balancing traffic over two routers, which
				// IPD deliberately cannot classify.
				a.Profile = ProfileCloud
				a.UnitBits = 24
				a.LoadBalanced = true
			} else if i%3 == 0 {
				a.Profile = ProfileCDN
				a.UnitBits = 27
				a.RemapPeriod = time.Duration(30+10*(i%5)) * time.Minute
				a.RemapFraction = 0.4
				a.DeviantFraction = 0.02
			} else if i%3 == 1 {
				a.Profile = ProfileEyeball
				a.UnitBits = 20
			} else {
				a.Profile = ProfileCloud
				a.UnitBits = 24
				a.RemapPeriod = 12 * time.Hour
				a.RemapFraction = 0.1
				a.DeviantFraction = 0.01
			}
			a.SymmetryProb = 0.55
			a.Links = pickLinks(3+i%3, topology.LinkTransit, asn)
		default: // tier-1 peers
			a.Profile = ProfileTransit
			a.UnitBits = 20
			a.Tier1 = true
			a.RemapPeriod = 24 * time.Hour
			a.RemapFraction = 0.1
			a.SymmetryProb = 0.91
			a.Links = pickLinks(2+i%2, topology.LinkPublicPeering, asn)
		}
		if len(a.Links) == 0 {
			return fmt.Errorf("trafficgen: no links available for %s", a.Name)
		}
		a.Prefixes = allocPrefixes(i, a.Profile, rng)
		// The hypergiants are dual-stacked (AS1, AS2, AS4): they also
		// announce and source IPv6 (deployment cidr_max6 /48, factor6 24).
		if i == 0 || i == 1 || i == 3 {
			a.UnitBits6 = 48
			a.Prefixes6 = allocPrefixes6(i)
		}
		s.ASes = append(s.ASes, a)
		s.byASN[asn] = a
		for _, p := range a.Prefixes {
			byAddr = append(byAddr, netaddr.Entry[*AS]{Prefix: p, Val: a})
		}
		for _, p := range a.Prefixes6 {
			byAddr = append(byAddr, netaddr.Entry[*AS]{Prefix: p, Val: a})
		}
	}
	s.byAddr = netaddr.NewTable(byAddr)

	// Violation paths: each tier-1 peer's violating traffic enters via a
	// transit interface belonging to some *other* AS.
	var transitLinks []flow.Ingress
	for _, itf := range s.Topo.Interfaces() {
		if itf.Class == topology.LinkTransit {
			transitLinks = append(transitLinks, itf.In)
		}
	}
	for _, a := range s.ASes {
		if a.Tier1 && len(transitLinks) > 0 {
			a.ViolationVia = transitLinks[int(hash64(s.seed, uint64(a.ASN))%uint64(len(transitLinks)))]
		}
	}

	// Maintenance: one window on AS1's first link around 11:00 and another
	// around 23:00 of day 1 (the Fig. 8 "AS1" spikes). A small fraction of
	// units — below the q error margin, like the paper's incident — moves
	// to a different interface on the same router, so the classification
	// survives and the moved flows stay interface misses for the whole
	// window.
	as1 := s.ASes[0]
	day1 := s.Start
	// Both parallel interfaces of AS1's first router are touched by the
	// upgrade; their diverted units land on a freshly brought-up port of
	// the same router.
	for _, target := range as1.Links[:2] {
		repl := flow.Ingress{Router: target.Router, Iface: target.Iface + 100}
		// The replacement interface may not exist in the inventory;
		// register it so the topology can still classify it.
		_ = s.Topo.AddInterface(repl, as1.ASN, topology.LinkPNI)
		s.Maintenance = append(s.Maintenance,
			Maintenance{Target: target, Replacement: repl, Fraction: 0.04,
				From: day1.Add(11 * time.Hour), To: day1.Add(11*time.Hour + 45*time.Minute)},
			Maintenance{Target: target, Replacement: repl, Fraction: 0.04,
				From: day1.Add(23 * time.Hour), To: day1.Add(23*time.Hour + 45*time.Minute)},
		)
	}
	return nil
}

// allocPrefixes carves disjoint prefixes for AS index i out of its private
// base /8 (offset from 10.0.0.0/8 by index, wrapping through 10..209).
// Profile selects the size mix: AS4-style CDNs get a few large /12-/15
// prefixes; others get /14-/24.
func allocPrefixes(i int, p Profile, rng *splitMix) []netip.Prefix {
	base := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(10 + i), 0, 0, 0}), 8)
	var sizes []int
	switch {
	case i == 3: // AS4: large address blocks (/12../15), per §5.1.2
		sizes = []int{12, 13, 14, 15}
	case p == ProfileCDN:
		sizes = []int{14, 16, 18, 20, 22, 24, 24, 24}
	case p == ProfileEyeball:
		sizes = []int{12, 14, 15, 16, 16}
	case p == ProfileCloud:
		sizes = []int{14, 16, 16, 20, 22}
	default: // transit / tier-1
		sizes = []int{14, 16, 16, 18, 20, 22, 24}
	}
	out := make([]netip.Prefix, 0, len(sizes))
	for k, bits := range sizes {
		// Slot k is the k-th /12 inside the base /8 (16 slots available).
		slot := netaddr.NthSubPrefix(base, 12, uint64(k))
		if bits < 12 {
			bits = 12
		}
		out = append(out, netip.PrefixFrom(slot.Addr(), bits))
		_ = rng
	}
	return out
}

// allocPrefixes6 carves disjoint IPv6 prefixes for AS index i inside its
// private /40 of the 2001:db8::/32 documentation block: a /44 and two /48s.
func allocPrefixes6(i int) []netip.Prefix {
	base := [16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i + 1)}
	mk := func(fifth byte, bits int) netip.Prefix {
		b := base
		b[5] = fifth
		return netip.PrefixFrom(netip.AddrFrom16(b), bits)
	}
	return []netip.Prefix{
		mk(0x00, 44), // 2001:db8:XX00::/44
		mk(0x10, 48), // 2001:db8:XX10::/48
		mk(0x20, 48), // 2001:db8:XX20::/48
	}
}

// ASOf returns the AS sourcing addr.
func (s *Scenario) ASOf(addr netip.Addr) (*AS, bool) {
	_, a, ok := s.byAddr.Lookup(addr)
	return a, ok
}

// ASByNumber returns the AS with the given ASN.
func (s *Scenario) ASByNumber(asn topology.ASN) (*AS, bool) {
	a, ok := s.byASN[asn]
	return a, ok
}

// Top returns the first n ASes by volume (the paper's TOP5/TOP20 sets).
func (s *Scenario) Top(n int) []*AS {
	if n > len(s.ASes) {
		n = len(s.ASes)
	}
	return s.ASes[:n]
}

// Tier1Peers returns the tier-1 peer ASes.
func (s *Scenario) Tier1Peers() []*AS {
	var out []*AS
	for _, a := range s.ASes {
		if a.Tier1 {
			out = append(out, a)
		}
	}
	return out
}

func lessIngress(a, b flow.Ingress) bool {
	if a.Router != b.Router {
		return a.Router < b.Router
	}
	return a.Iface < b.Iface
}

// splitMix is a tiny deterministic RNG (SplitMix64) so the generator does
// not depend on math/rand ordering guarantees across Go versions.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (s *splitMix) float() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

// hash64 mixes the given words with FNV-1a.
func hash64(words ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range words {
		b[0] = byte(w)
		b[1] = byte(w >> 8)
		b[2] = byte(w >> 16)
		b[3] = byte(w >> 24)
		b[4] = byte(w >> 32)
		b[5] = byte(w >> 40)
		b[6] = byte(w >> 48)
		b[7] = byte(w >> 56)
		h.Write(b[:])
	}
	return h.Sum64()
}

// hashFrac maps the given words to a uniform float in [0, 1).
func hashFrac(words ...uint64) float64 {
	return float64(hash64(words...)>>11) / float64(1<<53)
}

// DiurnalFactor is the paper's diurnal load pattern: volume peaks at 20:00
// (the §5.3.1 "prime time") and bottoms out around 08:00. The factor is in
// [0.1, 1].
func DiurnalFactor(ts time.Time) float64 {
	h := float64(ts.Hour()) + float64(ts.Minute())/60
	return 0.65 + 0.35*math.Cos(2*math.Pi*(h-20)/24)
}
