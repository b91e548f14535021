package trafficgen

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/topology"
)

func testScenario(t testing.TB) *Scenario {
	t.Helper()
	s, err := NewScenario(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecValidation(t *testing.T) {
	spec := DefaultSpec()
	spec.ContentASes = 3
	if _, err := NewScenario(spec); err == nil {
		t.Error("too few content ASes should fail")
	}
	spec = DefaultSpec()
	spec.Tier1Peers = -1
	if _, err := NewScenario(spec); err == nil {
		t.Error("negative tier1 peers should fail")
	}
	spec = DefaultSpec()
	spec.Start = time.Time{}
	if _, err := NewScenario(spec); err == nil {
		t.Error("zero start should fail")
	}
}

func TestScenarioShape(t *testing.T) {
	s := testScenario(t)
	if len(s.ASes) != 36 {
		t.Fatalf("ASes = %d", len(s.ASes))
	}
	if got := len(s.Tier1Peers()); got != 16 {
		t.Errorf("tier-1 peers = %d, want 16", got)
	}
	// Weights sum to ~1 and are declining for the top of the list.
	sum := 0.0
	for _, a := range s.ASes {
		sum += a.Weight
		if len(a.Links) == 0 {
			t.Errorf("%s has no links", a.Name)
		}
		if len(a.Prefixes) == 0 {
			t.Errorf("%s has no prefixes", a.Name)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum = %v", sum)
	}
	top5 := 0.0
	for _, a := range s.Top(5) {
		top5 += a.Weight
	}
	if math.Abs(top5-0.52) > 1e-9 {
		t.Errorf("TOP5 weight = %v, want 0.52", top5)
	}
	top20 := 0.0
	for _, a := range s.Top(20) {
		top20 += a.Weight
	}
	if math.Abs(top20-0.80) > 1e-9 {
		t.Errorf("TOP20 weight = %v, want 0.80", top20)
	}
	// AS prefix spaces are disjoint: every prefix maps back to its AS.
	for _, a := range s.ASes {
		for _, p := range a.Prefixes {
			got, ok := s.ASOf(p.Addr())
			if !ok || got != a {
				t.Errorf("ASOf(%v) = %v, want %s", p, got, a.Name)
			}
		}
	}
	if _, ok := s.ASByNumber(s.ASes[0].ASN); !ok {
		t.Error("ASByNumber missed")
	}
	if _, ok := s.ASByNumber(1); ok {
		t.Error("unknown ASN should miss")
	}
}

func TestGroundTruthDeterminism(t *testing.T) {
	s1 := testScenario(t)
	s2 := testScenario(t)
	ts := s1.Start.Add(26 * time.Hour)
	for _, a := range s1.ASes[:8] {
		addr := a.Prefixes[0].Addr().Next()
		in1, ok1 := s1.Ingress(addr, ts, 7)
		in2, ok2 := s2.Ingress(addr, ts, 7)
		if ok1 != ok2 || in1 != in2 {
			t.Errorf("%s: %v/%v vs %v/%v", a.Name, in1, ok1, in2, ok2)
		}
	}
	if _, ok := s1.Ingress(netip.MustParseAddr("250.1.2.3"), ts, 0); ok {
		t.Error("address outside all ASes should miss")
	}
}

func TestGroundTruthUsesASLinks(t *testing.T) {
	s := testScenario(t)
	ts := s.Start.Add(3 * time.Hour)
	for _, a := range s.ASes {
		if a.Tier1 {
			continue // violations may divert
		}
		linkSet := make(map[flow.Ingress]bool)
		for _, l := range a.Links {
			linkSet[l] = true
		}
		for _, m := range s.Maintenance {
			linkSet[m.Replacement] = true
		}
		for ui := 0; ui < 20; ui++ {
			addr := a.Prefixes[ui%len(a.Prefixes)].Addr()
			in, ok := s.Ingress(addr, ts, uint64(ui))
			if !ok {
				t.Fatalf("%s: no ingress", a.Name)
			}
			if !linkSet[in] {
				t.Errorf("%s: ingress %v not among the AS's links", a.Name, in)
			}
		}
	}
}

func TestMaintenanceOverride(t *testing.T) {
	s := testScenario(t)
	m := s.Maintenance[0]
	as1 := s.ASes[0]
	// survey counts how many AS1 units map to the target and replacement
	// interfaces at ts, sampling units spread across each prefix so many
	// mapping blocks are covered.
	survey := func(ts time.Time) (target, replacement int) {
		for _, p := range as1.Prefixes {
			bits := as1.UnitBits
			if bits < p.Bits() {
				bits = p.Bits()
			}
			total := uint64(1) << uint(bits-p.Bits())
			stride := total / 200
			if stride == 0 {
				stride = 1
			}
			for u := uint64(0); u < total; u += stride {
				addr := nthUnitAddr(p, bits, u)
				if !addr.IsValid() {
					break
				}
				in, ok := s.Ingress(addr, ts, 0)
				if !ok {
					continue
				}
				switch in {
				case m.Target:
					target++
				case m.Replacement:
					replacement++
				}
			}
		}
		return
	}
	// Note: AS1 remap epochs may roll at the window boundary, so target
	// unit counts are not conserved across it; the invariants are about
	// the replacement interface and the partial nature of the swap.
	beforeT, beforeR := survey(m.From.Add(-time.Minute))
	if beforeT == 0 {
		t.Fatal("no AS1 units map to the maintenance target before the window")
	}
	if beforeR != 0 {
		t.Fatalf("replacement interface carries traffic before maintenance (%d units)", beforeR)
	}
	duringT, duringR := survey(m.From.Add(10 * time.Minute))
	if duringR == 0 {
		t.Error("no units moved to the replacement interface during maintenance")
	}
	// The swap is partial (Fraction < 1): the bulk keeps entering the
	// target, which is what keeps the IPD classification alive (§5.1.2).
	if duringT < duringR {
		t.Errorf("partial maintenance moved the majority: target=%d repl=%d", duringT, duringR)
	}
	afterT, afterR := survey(m.To.Add(time.Hour))
	if afterT == 0 || afterR != 0 {
		t.Errorf("after maintenance: target=%d replacement=%d", afterT, afterR)
	}
	if !m.Covers(m.From) || m.Covers(m.To) {
		t.Error("Covers boundary semantics")
	}
}

// nthUnitAddr returns the base address of the n-th unit of size bits in p,
// or an invalid addr when out of range.
func nthUnitAddr(p netip.Prefix, bits int, n uint64) netip.Addr {
	if n >= (uint64(1) << uint(bits-p.Bits())) {
		return netip.Addr{}
	}
	step := uint64(1) << uint(32-bits)
	a4 := p.Masked().Addr().As4()
	base := uint64(a4[0])<<24 | uint64(a4[1])<<16 | uint64(a4[2])<<8 | uint64(a4[3])
	base += n * step
	return netip.AddrFrom4([4]byte{byte(base >> 24), byte(base >> 16), byte(base >> 8), byte(base)})
}

func TestLoadBalancedASSplitsFlows(t *testing.T) {
	s := testScenario(t)
	var lb *AS
	for _, a := range s.ASes {
		if a.LoadBalanced {
			lb = a
			break
		}
	}
	if lb == nil {
		t.Fatal("no load-balanced AS in the default scenario")
	}
	addr := lb.Prefixes[0].Addr()
	ts := s.Start.Add(time.Hour)
	seen := make(map[flow.Ingress]int)
	for salt := uint64(0); salt < 200; salt++ {
		in, ok := s.Ingress(addr, ts, salt)
		if !ok {
			t.Fatal("no ingress")
		}
		seen[in]++
	}
	if len(seen) != 2 {
		t.Fatalf("LB ingresses = %v, want 2 distinct", seen)
	}
	for in, c := range seen {
		if c < 50 {
			t.Errorf("LB skew: %v only %d/200", in, c)
		}
	}
}

func TestViolationTrend(t *testing.T) {
	s := testScenario(t)
	// Before the violation regime nothing diverts.
	if got := s.ViolationRateAt(s.Start); got != 0 {
		t.Errorf("rate at start = %v", got)
	}
	early := s.ViolationRateAt(s.Start.Add(6 * 30 * 24 * time.Hour)) // ~month 6
	mid := s.ViolationRateAt(s.Start.Add(24 * 30 * 24 * time.Hour))  // ~month 24
	late := s.ViolationRateAt(s.Start.Add(40 * 30 * 24 * time.Hour)) // ~month 40
	if early <= 0 {
		t.Fatalf("early rate = %v", early)
	}
	if math.Abs(mid/early-1.5) > 1e-9 {
		t.Errorf("mid/early = %v, want 1.5", mid/early)
	}
	if math.Abs(late/early-2.0) > 1e-9 {
		t.Errorf("late/early = %v, want 2.0", late/early)
	}
	// Measured diverted fraction matches the scheduled rate.
	tier1 := s.Tier1Peers()[0]
	ts := s.Start.Add(10 * 30 * 24 * time.Hour)
	diverted, total := 0, 0
	for _, p := range tier1.Prefixes {
		for u := uint64(0); u < 50; u++ {
			addr := nthUnitAddr(p, tier1.UnitBits, u)
			if !addr.IsValid() {
				break
			}
			in, ok := s.Ingress(addr, ts, 0)
			if !ok {
				continue
			}
			total++
			if in == tier1.ViolationVia { // diverted
				diverted++
			}
		}
	}
	frac := float64(diverted) / float64(total)
	if frac < 0.01 || frac > 0.25 {
		t.Errorf("diverted fraction = %v (n=%d), want around 0.09", frac, total)
	}
	// Violating traffic enters via a transit (non-peering) link.
	if got := s.LinkClassOf(tier1.ViolationVia); got != topology.LinkTransit {
		t.Errorf("violation link class = %v", got)
	}
}

func TestStreamCalibration(t *testing.T) {
	s := testScenario(t)
	cfg := DefaultGenConfig()
	cfg.FlowsPerMinute = 2000
	cfg.Diurnal = false
	start := s.Start
	end := start.Add(30 * time.Minute)
	byAS := make(map[string]int)
	total := 0
	var lastTs time.Time
	err := s.Stream(start, end, cfg, func(r flow.Record) bool {
		if !r.Valid() {
			t.Fatal("invalid record generated")
		}
		if r.Ts.Before(start) || !r.Ts.Before(end) {
			t.Fatalf("record ts %v outside window", r.Ts)
		}
		if r.Ts.Before(lastTs.Truncate(time.Minute)) {
			t.Fatal("records regressed by more than a minute")
		}
		lastTs = r.Ts
		a, ok := s.ASOf(r.Src)
		if !ok {
			t.Fatalf("record src %v outside AS space", r.Src)
		}
		byAS[a.Name]++
		total++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if total < 50000 {
		t.Fatalf("total = %d", total)
	}
	top5 := byAS["AS1"] + byAS["AS2"] + byAS["AS3"] + byAS["AS4"] + byAS["AS5"]
	share := float64(top5) / float64(total)
	if share < 0.46 || share > 0.58 {
		t.Errorf("TOP5 share = %v, want ~0.52", share)
	}
}

func TestStreamDiurnal(t *testing.T) {
	s := testScenario(t)
	cfg := DefaultGenConfig()
	cfg.FlowsPerMinute = 1000
	count := func(h int) int {
		start := s.Start.Add(time.Duration(h) * time.Hour)
		n := 0
		if err := s.Stream(start, start.Add(time.Hour), cfg, func(flow.Record) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	peak, trough := count(20), count(8)
	if float64(peak) < 1.5*float64(trough) {
		t.Errorf("peak %d vs trough %d: diurnal swing too small", peak, trough)
	}
	if f := DiurnalFactor(s.Start.Add(20 * time.Hour)); math.Abs(f-1) > 1e-9 {
		t.Errorf("DiurnalFactor(20h) = %v", f)
	}
	if f := DiurnalFactor(s.Start.Add(8 * time.Hour)); math.Abs(f-0.3) > 1e-9 {
		t.Errorf("DiurnalFactor(8h) = %v", f)
	}
}

func TestStreamValidation(t *testing.T) {
	s := testScenario(t)
	end := s.Start.Add(time.Minute)
	if err := s.Stream(s.Start, end, GenConfig{FlowsPerMinute: 0}, nil); err == nil {
		t.Error("zero rate should fail")
	}
	if err := s.Stream(s.Start, end, GenConfig{FlowsPerMinute: 10, NoiseFraction: 1}, nil); err == nil {
		t.Error("noise 1.0 should fail")
	}
	if err := s.Stream(end, s.Start, DefaultGenConfig(), nil); err == nil {
		t.Error("end before start should fail")
	}
	// Early stop.
	n := 0
	if err := s.Stream(s.Start, s.Start.Add(time.Hour), DefaultGenConfig(), func(flow.Record) bool {
		n++
		return n < 10
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("early stop after %d", n)
	}
}

func TestStreamDeterminism(t *testing.T) {
	s := testScenario(t)
	cfg := DefaultGenConfig()
	cfg.FlowsPerMinute = 500
	get := func() []flow.Record {
		recs, err := s.Records(s.Start, s.Start.Add(5*time.Minute), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := get(), get()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestStreamMinuteOrder pins Stream's order: minutes never go back, and
// inside a minute records come in generation order with random offsets,
// not sorted. Every figure reads this stream, so sorting it would move
// experiments_output.txt.
func TestStreamMinuteOrder(t *testing.T) {
	s := testScenario(t)
	cfg := DefaultGenConfig()
	cfg.FlowsPerMinute = 500
	recs, err := s.Records(s.Start, s.Start.Add(5*time.Minute), cfg)
	if err != nil {
		t.Fatal(err)
	}
	backwards := 0
	for i := 1; i < len(recs); i++ {
		prev, cur := recs[i-1].Ts, recs[i].Ts
		if cur.Truncate(time.Minute).Before(prev.Truncate(time.Minute)) {
			t.Fatalf("record %d is in minute %v, after a record in minute %v", i, cur.Truncate(time.Minute), prev.Truncate(time.Minute))
		}
		if cur.Before(prev) {
			backwards++
		}
	}
	if backwards == 0 {
		t.Fatal("records are in timestamp order inside every minute; the stream changed")
	}
}

func TestBGPTableShape(t *testing.T) {
	s := testScenario(t)
	tb := s.BGPTable(s.Start.Add(24 * time.Hour))
	if tb.NumRoutes() == 0 {
		t.Fatal("empty table")
	}
	counts := tb.NextHopCounts(nil)
	n1, n5plus := 0, 0
	for _, c := range counts {
		if c < 1 || c > 12 {
			t.Fatalf("next-hop count %d out of band", c)
		}
		if c == 1 {
			n1++
		}
		if c > 5 {
			n5plus++
		}
	}
	f1 := float64(n1) / float64(len(counts))
	f5 := float64(n5plus) / float64(len(counts))
	// Fig 3 calibration: ~20% single next-hop, ~60% more than five.
	if f1 < 0.08 || f1 > 0.35 {
		t.Errorf("single next-hop fraction = %v, want ~0.2", f1)
	}
	if f5 < 0.45 || f5 > 0.75 {
		t.Errorf(">5 next-hop fraction = %v, want ~0.6", f5)
	}
	// Candidate sets are built starting from the AS's own attachment
	// routers, so at least one of them appears for every prefix (BGP may
	// legitimately announce fewer candidates than the AS has traffic
	// links — that mismatch is the paper's point).
	a := s.ASes[0]
	asRouters := make(map[flow.RouterID]bool)
	for _, rr := range uniqueRouters(a.Links) {
		asRouters[rr] = true
	}
	for _, p := range a.Prefixes {
		r, ok := tb.Get(p)
		if !ok {
			t.Fatalf("route for AS1 prefix %v missing", p)
		}
		foundAS := false
		for _, h := range r.NextHops {
			if asRouters[h] {
				foundAS = true
			}
		}
		if !foundAS {
			t.Errorf("prefix %v: no AS1 router among next hops %v", p, r.NextHops)
		}
	}
}

func TestBGPSymmetryCalibration(t *testing.T) {
	s := testScenario(t)
	// Measured per-class symmetry should land near the configured
	// SymmetryProb: tier-1 ~0.91, TOP5 ~0.77.
	measure := func(ases []*AS) float64 {
		sym, tot := 0, 0
		for day := 0; day < 40; day++ {
			ts := s.Start.Add(time.Duration(day) * 24 * time.Hour)
			tb := s.BGPTable(ts)
			for _, a := range ases {
				for _, p := range a.Prefixes {
					r, ok := tb.Get(p)
					if !ok {
						continue
					}
					dom, ok := s.DominantIngress(p, ts)
					if !ok {
						continue
					}
					tot++
					if r.Best == dom.Router {
						sym++
					}
				}
			}
		}
		return float64(sym) / float64(tot)
	}
	t1 := measure(s.Tier1Peers())
	if t1 < 0.8 || t1 > 1 {
		t.Errorf("tier-1 symmetry = %v, want ~0.91", t1)
	}
	top5 := measure(s.Top(5))
	if top5 < 0.6 || top5 > 0.92 {
		t.Errorf("TOP5 symmetry = %v, want ~0.77", top5)
	}
	if t1 <= top5 {
		t.Errorf("tier-1 symmetry (%v) should exceed TOP5 (%v)", t1, top5)
	}
}

func TestBGPDumps(t *testing.T) {
	s := testScenario(t)
	ds, err := s.BGPDumps(s.Start, s.Start.Add(3*24*time.Hour), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 4 {
		t.Fatalf("dumps = %d", ds.Len())
	}
	tb, ok := ds.At(s.Start.Add(36 * time.Hour))
	if !ok || !tb.At.Equal(s.Start.Add(24*time.Hour)) {
		t.Errorf("At(36h) = %v", tb.At)
	}
}

func TestProfileString(t *testing.T) {
	for _, p := range []Profile{ProfileCDN, ProfileCloud, ProfileEyeball, ProfileTransit, Profile(99)} {
		if p.String() == "" {
			t.Error("empty profile string")
		}
	}
}

func TestZipfIndexBounds(t *testing.T) {
	for _, n := range []int{1, 2, 10} {
		for _, u := range []float64{0, 0.25, 0.5, 0.999999} {
			if idx := zipfIndex(u, n); idx < 0 || idx >= n {
				t.Errorf("zipfIndex(%v, %d) = %d", u, n, idx)
			}
		}
	}
	if zipfIndex(0.1, 0) != 0 {
		t.Error("zipfIndex with n=0")
	}
	// Rank 0 must dominate.
	hits := make([]int, 5)
	r := newSplitMix(3)
	for i := 0; i < 10000; i++ {
		hits[zipfIndex(r.float(), 5)]++
	}
	if hits[0] < hits[1] || hits[1] < hits[2] {
		t.Errorf("zipf not declining: %v", hits)
	}
}

func TestIPv6DualStack(t *testing.T) {
	s := testScenario(t)
	// AS1, AS2, AS4 are dual-stacked.
	dual := 0
	for _, a := range s.ASes {
		if len(a.Prefixes6) > 0 {
			dual++
			if a.UnitBits6 != 48 {
				t.Errorf("%s UnitBits6 = %d", a.Name, a.UnitBits6)
			}
			for _, p := range a.Prefixes6 {
				got, ok := s.ASOf(p.Addr())
				if !ok || got != a {
					t.Errorf("ASOf(%v) = %v", p, got)
				}
			}
		}
	}
	if dual != 3 {
		t.Fatalf("dual-stacked ASes = %d, want 3", dual)
	}
	// Ground truth resolves v6 addresses to the AS's links.
	as1 := s.ASes[0]
	ts := s.Start.Add(2 * time.Hour)
	linkSet := map[flow.Ingress]bool{}
	for _, l := range as1.Links {
		linkSet[l] = true
	}
	addr := as1.Prefixes6[0].Addr().Next()
	in, ok := s.Ingress(addr, ts, 0)
	if !ok || !linkSet[in] {
		t.Errorf("v6 ingress = %v ok=%v", in, ok)
	}
	// The stream carries roughly the configured v6 share of dual-stack
	// AS traffic.
	cfg := DefaultGenConfig()
	cfg.FlowsPerMinute = 3000
	cfg.Diurnal = false
	v6, total := 0, 0
	err := s.Stream(s.Start, s.Start.Add(10*time.Minute), cfg, func(r flow.Record) bool {
		total++
		if r.IsIPv6() {
			v6++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	share := float64(v6) / float64(total)
	// Dual-stack ASes carry 36% of volume; 10% of that is v6 => ~3.6%.
	if share < 0.015 || share > 0.08 {
		t.Errorf("v6 share = %v, want ~0.036", share)
	}
	// BGP announces the v6 prefixes too.
	tb := s.BGPTable(ts)
	if _, ok := tb.Get(as1.Prefixes6[0]); !ok {
		t.Error("v6 prefix missing from BGP table")
	}
}

func TestBEUint64RoundTrip(t *testing.T) {
	r := newSplitMix(5)
	for i := 0; i < 1000; i++ {
		v := r.next()
		var b [8]byte
		putBEUint64(b[:], v)
		if got := beUint64(b[:]); got != v {
			t.Fatalf("round trip %x -> %x", v, got)
		}
	}
}

func TestRandomSource6StaysInPrefix(t *testing.T) {
	s := testScenario(t)
	var dual *AS
	for _, a := range s.ASes {
		if len(a.Prefixes6) > 0 {
			dual = a
			break
		}
	}
	if dual == nil {
		t.Fatal("no dual-stack AS")
	}
	rng := newSplitMix(9)
	ts := s.Start.Add(time.Hour)
	for i := 0; i < 2000; i++ {
		addr := s.randomSource6(dual, ts, rng)
		inside := false
		for _, p := range dual.Prefixes6 {
			if p.Contains(addr) {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("v6 source %v escaped the AS's prefixes %v", addr, dual.Prefixes6)
		}
	}
}

func TestRandomDstBounds(t *testing.T) {
	rng := newSplitMix(11)
	space := netip.MustParsePrefix("100.64.0.0/10")
	for i := 0; i < 5000; i++ {
		d := randomDst(rng)
		if !space.Contains(d) {
			t.Fatalf("dst %v outside %v", d, space)
		}
	}
}

func TestSplitMixDeterminism(t *testing.T) {
	a, b := newSplitMix(1), newSplitMix(1)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("splitmix diverged")
		}
	}
	// float() stays in [0,1).
	r := newSplitMix(2)
	for i := 0; i < 10000; i++ {
		f := r.float()
		if f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
	}
}

func TestStreamHotspot(t *testing.T) {
	s := testScenario(t)
	cfg := DefaultGenConfig()
	cfg.Diurnal = false
	cfg.FlowsPerMinute = 2000
	cfg.HotFraction = 0.5
	recs, err := s.Records(s.Start, s.Start.Add(2*time.Minute), cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := s.defaultHotPrefix()
	if !hot.IsValid() {
		t.Fatal("no default hot prefix")
	}
	inHot := 0
	for _, r := range recs {
		if hot.Contains(r.Src.Unmap()) {
			inHot++
		}
	}
	frac := float64(inHot) / float64(len(recs))
	if frac < 0.45 || frac > 0.6 {
		t.Errorf("hot fraction = %v (%d/%d), want ~0.5", frac, inHot, len(recs))
	}

	// An explicit prefix is honored, and hot flows still carry the ground
	// truth ingress the scenario routes them to.
	want := netip.MustParsePrefix(hot.String())
	cfg.HotPrefix = want
	recs2, err := s.Records(s.Start, s.Start.Add(time.Minute), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs2 {
		if !want.Contains(r.Src.Unmap()) {
			continue
		}
		if (r.In == flow.Ingress{}) {
			t.Fatal("hot record carries no ingress")
		}
	}

	// Validation rejects an out-of-range fraction.
	bad := DefaultGenConfig()
	bad.HotFraction = 1
	if err := s.Stream(s.Start, s.Start.Add(time.Minute), bad, nil); err == nil {
		t.Error("HotFraction 1.0 should fail")
	}
}
