package trafficgen

import (
	"net/netip"
	"time"

	"ipd/internal/bgp"
	"ipd/internal/flow"
	"ipd/internal/netaddr"
	"ipd/internal/topology"
)

// Ingress returns the ground-truth ingress point for traffic from addr at
// time ts. flowSalt individualizes flows for router-level load balancing
// (pass 0 for the per-unit deterministic view). ok is false for addresses
// outside any AS's space.
//
// The resolution order models reality: violation episodes (traffic handed
// over indirectly) override the AS's own mapping; maintenance windows
// override the mapped interface; router-level load balancing picks per
// flow.
func (s *Scenario) Ingress(addr netip.Addr, ts time.Time, flowSalt uint64) (flow.Ingress, bool) {
	a, ok := s.ASOf(addr)
	if !ok {
		return flow.Ingress{}, false
	}
	unit, ok := netaddr.Mask(addr, a.unitBitsFor(addr))
	if !ok {
		return flow.Ingress{}, false
	}
	uk := unitKey(unit)

	// §5.6: tier-1 units diverted through non-peering links during the
	// violation regime. The affected unit set re-rolls monthly, and its
	// size follows the Fig. 17 growth trend.
	if a.Tier1 && a.ViolationVia != (flow.Ingress{}) {
		month := monthsSince(s.Start, ts)
		if month >= violationStartMonth {
			rate := s.violationRate(month)
			if hashFrac(s.seed, uint64(a.ASN), uk, uint64(month), 0x710a) < rate {
				return a.ViolationVia, true
			}
		}
	}

	// Router-level load balancing: per-flow choice between the first two
	// links (IPD's deliberate blind spot, §5.8).
	if a.LoadBalanced && len(a.Links) >= 2 {
		return a.Links[hash64(s.seed, uk, flowSalt)%2], true
	}

	in := s.baseIngress(a, unit, uk, ts)

	// Maintenance windows move a fraction of the interface's units.
	for _, m := range s.Maintenance {
		if in == m.Target && m.Covers(ts) &&
			hashFrac(s.seed, uk, uint64(m.From.Unix()), 0x3a17) < m.Fraction {
			in = m.Replacement
		}
	}
	return in, true
}

// baseIngress is the AS's own user→ingress mapping for a unit at ts.
//
// Mappings have spatial locality: contiguous *blocks* (BlockBits-sized,
// e.g. /20 regions of /28 units) share one ingress link — the way real
// CDNs map whole user regions to a data center. A small DeviantFraction of
// units inside a block follow their own mapping instead; they are what
// splits some IPD ranges deeper and what produces the residual
// misclassifications of §5.1.2.
func (s *Scenario) baseIngress(a *AS, unit netip.Prefix, uk uint64, ts time.Time) flow.Ingress {
	k := len(a.Links)
	if k == 1 {
		return a.Links[0]
	}
	// Deviant units: unit-granular mapping, era-stable (they sit on their
	// own link for months — their effect on IPD is extra splits and a few
	// persistent misses inside q's error margin, not flapping).
	if a.DeviantFraction > 0 && hashFrac(s.seed, uint64(a.ASN), uk, 0xdef) < a.DeviantFraction {
		phase := hash64(s.seed, uk, 0xdea) % eraMonths
		era := uint64(monthsSince(s.Start, ts)+int(phase)) / eraMonths
		return a.Links[hash64(s.seed, uint64(a.ASN), uk, era, 0xdee)%uint64(k)]
	}
	block, ok := netaddr.Mask(unit.Addr(), a.blockBitsFor(unit.Addr()))
	if !ok {
		block = unit
	}
	bk := unitKey(block)
	// Pinned blocks rarely move: they produce the dominant single-ingress
	// behaviour of §2 ("most prefixes only have one ingress point"). Even
	// pinned mappings drift on a ~18-month era with per-block phase — the
	// secular decline of the Fig. 10 "stable" share (hardly any prefix
	// remains on the same link after ~2.5 years).
	pinned := a.RemapPeriod <= 0 || hashFrac(s.seed, uint64(a.ASN), bk, 0x9191) >= a.RemapFraction
	if pinned {
		phase := hash64(s.seed, bk, 0xe7a) % eraMonths
		era := uint64(monthsSince(s.Start, ts)+int(phase)) / eraMonths
		// Stable mappings concentrate on a per-/12-slot primary link (the
		// way a region homes to its closest data center); the remainder
		// spreads by block hash. This is what gives hypergiant prefixes a
		// dominant ingress (§2) and the higher TOP5 symmetry of §5.5.
		if conc := a.concentration(); conc > 0 {
			slot, ok := netaddr.Mask(unit.Addr(), slotBitsFor(unit.Addr()))
			if ok && hashFrac(s.seed, bk, era, 0xc0c0) < conc {
				return a.Links[hash64(s.seed, uint64(a.ASN), unitKey(slot), era, 0x9111)%uint64(k)]
			}
		}
		return a.Links[hash64(s.seed, uint64(a.ASN), bk, era, 0xba5e)%uint64(k)]
	}
	// Remapping blocks re-roll every RemapPeriod. CDNs additionally
	// consolidate onto fewer ingresses in the low-traffic hours, which is
	// what merges IPD ranges at night (Figs. 11/12).
	epoch := uint64(ts.Unix() / int64(a.RemapPeriod.Seconds()))
	kEff := k
	if a.Profile == ProfileCDN {
		kEff = 1 + int(float64(k-1)*DiurnalFactor(ts)+0.5)
		if kEff > k {
			kEff = k
		}
	}
	// Remapping blocks are also mostly homed to a per-slot primary (which
	// itself re-rolls every epoch — whole user regions move together);
	// only the remainder scatters per block.
	if conc := a.concentration(); conc > 0 {
		slot, ok := netaddr.Mask(unit.Addr(), slotBitsFor(unit.Addr()))
		if ok && hashFrac(s.seed, bk, 0xc1c1) < conc {
			return a.Links[hash64(s.seed, uint64(a.ASN), unitKey(slot), epoch, 0x9122)%uint64(kEff)]
		}
	}
	return a.Links[hash64(s.seed, uint64(a.ASN), bk, epoch, 0x5e1ec7)%uint64(kEff)]
}

// unitBitsFor returns the mapping granularity for addr's family.
func (a *AS) unitBitsFor(addr netip.Addr) int {
	if !addr.Unmap().Is4() {
		return a.UnitBits6
	}
	return a.UnitBits
}

// blockBitsFor is the granularity of the AS's spatially contiguous mapping
// regions: 8 bits coarser than the unit granularity, floored at /12 (IPv4)
// and /40 (IPv6).
func (a *AS) blockBitsFor(addr netip.Addr) int {
	if !addr.Unmap().Is4() {
		b := a.UnitBits6 - 8
		if b < 40 {
			b = 40
		}
		return b
	}
	b := a.UnitBits - 8
	if b < 12 {
		b = 12
	}
	return b
}

// slotBitsFor is the per-family "primary link region" granularity (one
// slot per allocated prefix, roughly).
func slotBitsFor(addr netip.Addr) int {
	if !addr.Unmap().Is4() {
		return 44
	}
	return 12
}

// DominantIngress returns the modal ground-truth ingress over sampled units
// of the prefix at ts — the reference point for BGP symmetry (§5.5 compares
// against the ingress carrying the bulk of the prefix's traffic).
func (s *Scenario) DominantIngress(p netip.Prefix, ts time.Time) (flow.Ingress, bool) {
	if !p.Addr().Is4() {
		return flow.Ingress{}, false
	}
	span := uint64(1) << uint(32-p.Bits())
	const probes = 32
	step := span / probes
	if step == 0 {
		step = 1
	}
	counts := make(map[flow.Ingress]int)
	base := p.Masked().Addr().As4()
	baseU := uint64(base[0])<<24 | uint64(base[1])<<16 | uint64(base[2])<<8 | uint64(base[3])
	for off := uint64(0); off < span; off += step {
		u := baseU + off
		addr := netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
		if in, ok := s.Ingress(addr, ts, 0); ok {
			counts[in]++
		}
	}
	var best flow.Ingress
	bestC := 0
	for in, c := range counts {
		if c > bestC || (c == bestC && lessIngress(in, best)) {
			best, bestC = in, c
		}
	}
	return best, bestC > 0
}

// concentration is the share of pinned blocks homed to the per-slot primary
// link, by profile.
func (a *AS) concentration() float64 {
	switch a.Profile {
	case ProfileCloud:
		return 0.85
	case ProfileEyeball:
		return 0.9
	case ProfileTransit:
		return 0.9
	default: // CDN: server selection spreads more of the mapping
		return 0.7
	}
}

const violationStartMonth = 2 // episodes begin ~2 months into the scenario (≈ March 2018)

// eraMonths is the cadence of the slow "even pinned mappings eventually
// move" drift (renumbering, capacity moves, re-homing).
const eraMonths = 18

// presenceFraction is the share of mapping units that actively source
// traffic in any given month; the active set re-rolls monthly. This drives
// the Fig. 10 "matching" plateau (~60-70% of today's mapped space is still
// present weeks later).
const presenceFraction = 0.65

// UnitActive reports whether a mapping unit sources traffic during ts's
// month (address-space churn: users, allocations, and CDN blocks come and
// go).
func (s *Scenario) UnitActive(addr netip.Addr, ts time.Time) bool {
	a, ok := s.ASOf(addr)
	if !ok {
		return false
	}
	unit, ok := netaddr.Mask(addr, a.unitBitsFor(addr))
	if !ok {
		return false
	}
	month := monthsSince(s.Start, ts)
	if month < 0 {
		month = 0
	}
	return hashFrac(s.seed, unitKey(unit), uint64(month), 0xac71) < presenceFraction
}

// monthsSince returns whole 30-day months between start and ts (negative
// clamped to -1).
func monthsSince(start, ts time.Time) int {
	d := ts.Sub(start)
	if d < 0 {
		return -1
	}
	return int(d / (30 * 24 * time.Hour))
}

// violationRate implements the Fig. 17 trend: a ~9% baseline that grows 50%
// from month 20 (≈ Sep 2019) and doubles from month 30 (≈ mid 2020).
func (s *Scenario) violationRate(month int) float64 {
	switch {
	case month < violationStartMonth:
		return 0
	case month < 20:
		return s.violationBase
	case month < 30:
		return s.violationBase * 1.5
	default:
		return s.violationBase * 2
	}
}

// ViolationRateAt exposes the scheduled rate for validation.
func (s *Scenario) ViolationRateAt(ts time.Time) float64 {
	return s.violationRate(monthsSince(s.Start, ts))
}

// BGPTable builds the RIB snapshot at ts. The candidate next-hop set per
// prefix reproduces Fig. 3's dotted curves (≈20% of prefixes with a single
// next hop, ≈60% with more than five), and the selected best path agrees
// with the dominant ingress router with the AS's SymmetryProb — the §5.5
// symmetry targets are inputs here and measured outputs in the evaluation.
func (s *Scenario) BGPTable(ts time.Time) *bgp.Table {
	var routes []bgp.Route
	routers := s.Topo.Routers()
	day := uint64(ts.Unix() / 86400)
	for _, a := range s.ASes {
		prefixes := append(append([]netip.Prefix(nil), a.Prefixes...), a.Prefixes6...)
		for _, p := range prefixes {
			pk := unitKey(p)
			// Candidate count: 20% -> 1, 20% -> 2..5, 60% -> 6..10.
			f := hashFrac(s.seed, pk, 0xc0)
			var want int
			switch {
			case f < 0.2:
				want = 1
			case f < 0.4:
				want = 2 + int(hash64(s.seed, pk, 0xc1)%4)
			default:
				want = 6 + int(hash64(s.seed, pk, 0xc2)%5)
			}
			// Start from the routers the AS is attached to, pad with
			// other border routers (routes learned via other peers).
			seen := make(map[flow.RouterID]bool)
			var hops []flow.RouterID
			for _, l := range a.Links {
				if !seen[l.Router] {
					seen[l.Router] = true
					hops = append(hops, l.Router)
				}
			}
			for i := 0; len(hops) < want && i < 4*len(routers); i++ {
				r := routers[hash64(s.seed, pk, uint64(i), 0xc3)%uint64(len(routers))]
				if !seen[r] {
					seen[r] = true
					hops = append(hops, r)
				}
			}
			// BGP may announce fewer candidates than the AS has traffic
			// links — that mismatch is exactly the paper's point (§3.1
			// "BGP is not an option").
			if len(hops) > want {
				hops = hops[:want]
			}
			// Best path: symmetric with the dominant ingress router with
			// probability SymmetryProb, re-drawn daily.
			best := hops[0]
			dom, ok := s.DominantIngress(p, ts)
			symmetric := ok && hashFrac(s.seed, pk, day, 0x5b) < a.SymmetryProb
			switch {
			case symmetric:
				if !containsRouter(hops, dom.Router) {
					hops[len(hops)-1] = dom.Router
				}
				best = dom.Router
			case ok:
				// Pick a candidate that is NOT the dominant ingress
				// router if one exists.
				for _, h := range hops {
					if h != dom.Router {
						best = h
						break
					}
				}
			}
			routes = append(routes, bgp.Route{Prefix: p, Origin: a.ASN, NextHops: hops, Best: best})
		}
	}
	tb, err := bgp.NewTable(ts, routes)
	if err != nil {
		// Construction is internally consistent; a failure here is a
		// programming error.
		panic(err)
	}
	return tb
}

// BGPDumps builds a dump series covering [start, end] at the given period.
func (s *Scenario) BGPDumps(start, end time.Time, every time.Duration) (*bgp.DumpSeries, error) {
	var ds bgp.DumpSeries
	for ts := start; !ts.After(end); ts = ts.Add(every) {
		if err := ds.Add(s.BGPTable(ts)); err != nil {
			return nil, err
		}
	}
	return &ds, nil
}

func containsRouter(hops []flow.RouterID, r flow.RouterID) bool {
	for _, h := range hops {
		if h == r {
			return true
		}
	}
	return false
}

func uniqueRouters(links []flow.Ingress) []flow.RouterID {
	seen := make(map[flow.RouterID]bool)
	var out []flow.RouterID
	for _, l := range links {
		if !seen[l.Router] {
			seen[l.Router] = true
			out = append(out, l.Router)
		}
	}
	return out
}

// unitKey folds a prefix into a hash word (family-aware).
func unitKey(p netip.Prefix) uint64 {
	addr := p.Addr().Unmap()
	if addr.Is4() {
		a := addr.As4()
		return uint64(a[0])<<32 | uint64(a[1])<<24 | uint64(a[2])<<16 | uint64(a[3])<<8 | uint64(p.Bits())
	}
	b := addr.As16()
	h := uint64(0xcbf29ce484222325)
	for _, x := range b[:8] {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	for _, x := range b[8:] {
		h = (h ^ uint64(x)) * 0x100000001b3
	}
	return h ^ uint64(p.Bits())<<56 ^ 1<<63
}

// LinkClassOf returns the link class of an ingress per the topology.
func (s *Scenario) LinkClassOf(in flow.Ingress) topology.LinkClass {
	itf, ok := s.Topo.Interface(in)
	if !ok {
		return topology.LinkUnknown
	}
	return itf.Class
}
