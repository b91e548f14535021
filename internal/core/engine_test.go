package core

import (
	"bytes"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/netaddr"
)

var base = time.Unix(1_600_000_000, 0).UTC().Truncate(time.Minute)

var (
	inA = flow.Ingress{Router: 1, Iface: 1}
	inB = flow.Ingress{Router: 2, Iface: 1}
	inC = flow.Ingress{Router: 3, Iface: 1}
	inD = flow.Ingress{Router: 4, Iface: 1}
)

// testConfig uses tiny n_cidr factors so classifications happen with small
// sample counts: n(/0) = ceil(0.001*65536) = 66, n(/1) ~ 47, n(/2) ~ 33...
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NCidrFactor4 = 0.001
	cfg.NCidrFactor6 = 1e-8 // v6 scales from /64: n(/0) = 1e-8 * 2^32 ≈ 43
	return cfg
}

// rangeAt returns the active range containing addr.
func rangeAt(e *Engine, addr netip.Addr) *rangeState {
	k, _ := netaddr.KeyFromAddr(addr, addr.BitLen())
	return e.idx.lookup(k)
}

func rec(ts time.Time, src string, in flow.Ingress) flow.Record {
	return flow.Record{Ts: ts, Src: netip.MustParseAddr(src), In: in, Bytes: 1000, Packets: 1}
}

// feedN feeds n records with sources spread over the /24 around srcBase.
func feedN(e *Engine, ts time.Time, srcBase netip.Addr, n int, in flow.Ingress) {
	a4 := srcBase.As4()
	for i := 0; i < n; i++ {
		a4[3] = byte(i % 256)
		a4[2] = byte(i / 256)
		e.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(a4), In: in, Bytes: 1000, Packets: 1})
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.CIDRMax4 = 0 },
		func(c *Config) { c.CIDRMax4 = 33 },
		func(c *Config) { c.CIDRMax6 = 0 },
		func(c *Config) { c.CIDRMax6 = 129 },
		func(c *Config) { c.NCidrFactor4 = 0 },
		func(c *Config) { c.NCidrFactor6 = -1 },
		func(c *Config) { c.Q = 0.5 },
		func(c *Config) { c.Q = 0 },
		func(c *Config) { c.Q = 1.01 },
		func(c *Config) { c.T = 0 },
		func(c *Config) { c.E = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewEngine(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestNCidrMatchesAppendixB pins the n_cidr formula to the values visible in
// the paper's example output trace (factor 24).
func TestNCidrMatchesAppendixB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NCidrFactor4 = 24
	cases := map[int]float64{16: 6144, 23: 543, 26: 192, 28: 96}
	for bits, want := range cases {
		if got := cfg.NCidr(bits, false); got != want {
			t.Errorf("NCidr(/%d) = %v, want %v", bits, got, want)
		}
	}
	// Default factor 64 at /28: 64*4 = 256.
	def := DefaultConfig()
	if got := def.NCidr(28, false); got != 256 {
		t.Errorf("NCidr(/28, factor 64) = %v, want 256", got)
	}
	// IPv6 uses /64 host granularity: at /48, 24*sqrt(2^16) = 6144.
	if got := def.NCidr(48, true); got != 6144 {
		t.Errorf("NCidr(v6 /48) = %v, want 6144", got)
	}
	// Beyond host bits clamps.
	if got := def.NCidr(70, true); got != 24 {
		t.Errorf("NCidr(v6 /70) = %v, want 24", got)
	}
}

func TestDefaultDecay(t *testing.T) {
	tmin := time.Minute
	if got := DefaultDecay(0, tmin); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("decay(0) = %v, want 0.1", got)
	}
	if got := DefaultDecay(tmin, tmin); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("decay(t) = %v, want 0.55", got)
	}
	if got := DefaultDecay(2*tmin, tmin); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("decay(2t) = %v, want 0.7", got)
	}
	if got := DefaultDecay(time.Hour, 0); got != 0 {
		t.Errorf("decay with t=0 = %v, want 0", got)
	}
}

func TestClassifySingleIngress(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// All traffic from one ingress: the /0 root classifies directly.
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
	e.AdvanceTo(base.Add(time.Minute))
	mapped := e.Mapped()
	if len(mapped) != 1 {
		t.Fatalf("mapped = %d ranges, want 1 (the /0 root)", len(mapped))
	}
	ri := mapped[0]
	if ri.Prefix.Bits() != 0 || ri.Ingress != inA || ri.Confidence != 1 {
		t.Errorf("mapped[0] = %+v", ri)
	}
	if ri.Samples != 100 {
		t.Errorf("Samples = %v", ri.Samples)
	}
	if e.Stats().Classifications != 1 {
		t.Errorf("Classifications = %d", e.Stats().Classifications)
	}
	// Classified range drops its per-IP state.
	if e.IPStateCount() != 0 {
		t.Errorf("IPStateCount = %d after classification", e.IPStateCount())
	}
}

func TestSplitOnMixedIngress(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Low half -> A, high half -> B: root must split into two /1s.
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
	feedN(e, base, netip.MustParseAddr("200.0.0.0"), 100, inB)
	e.AdvanceTo(base.Add(time.Minute))
	// Cycle 1: root splits; children already have the redistributed
	// samples, and are classified in the same cycle? No — children are
	// created after the range scan, so their classification happens next
	// cycle.
	e.AdvanceTo(base.Add(2 * time.Minute))
	mapped := e.Mapped()
	if len(mapped) != 2 {
		t.Fatalf("mapped = %v", mapped)
	}
	if mapped[0].Prefix != netip.MustParsePrefix("0.0.0.0/1") || mapped[0].Ingress != inA {
		t.Errorf("low half = %+v", mapped[0])
	}
	if mapped[1].Prefix != netip.MustParsePrefix("128.0.0.0/1") || mapped[1].Ingress != inB {
		t.Errorf("high half = %+v", mapped[1])
	}
	if e.Stats().Splits != 1 {
		t.Errorf("Splits = %d", e.Stats().Splits)
	}
}

// TestFig5Cascade reproduces the paper's Fig. 5 walk-through shape: four
// ingresses in the four /2 quadrants converge to four classified /2 ranges.
func TestFig5Cascade(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	quadrants := map[string]flow.Ingress{
		"10.0.0.0":  inA, // 0.0.0.0/2
		"70.0.0.0":  inB, // 64.0.0.0/2
		"140.0.0.0": inC, // 128.0.0.0/2
		"210.0.0.0": inD, // 192.0.0.0/2
	}
	ts := base
	for cycle := 0; cycle < 6; cycle++ {
		for src, in := range quadrants {
			feedN(e, ts, netip.MustParseAddr(src), 60, in)
		}
		ts = ts.Add(time.Minute)
		e.AdvanceTo(ts)
	}
	mapped := e.Mapped()
	if len(mapped) != 4 {
		t.Fatalf("mapped %d ranges, want 4: %+v", len(mapped), mapped)
	}
	for _, ri := range mapped {
		if ri.Prefix.Bits() != 2 {
			t.Errorf("range %v has %d bits, want /2", ri.Prefix, ri.Prefix.Bits())
		}
		if ri.Confidence < 1 {
			t.Errorf("range %v confidence %v", ri.Prefix, ri.Confidence)
		}
	}
}

func TestQualityThresholdTolleratesNoise(t *testing.T) {
	cfg := testConfig() // q = 0.95
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 97% A, 3% B: classified as A despite noise (q = 0.95).
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 97, inA)
	feedN(e, base, netip.MustParseAddr("10.0.1.0"), 3, inB)
	e.AdvanceTo(base.Add(time.Minute))
	mapped := e.Mapped()
	if len(mapped) != 1 || mapped[0].Ingress != inA {
		t.Fatalf("mapped = %+v", mapped)
	}
	if c := mapped[0].Confidence; c < 0.96 || c > 0.98 {
		t.Errorf("confidence = %v, want 0.97", c)
	}
	// The counters list still records B (the Table 3 parenthesized list).
	if mapped[0].Counters[inB] != 3 {
		t.Errorf("counters = %v", mapped[0].Counters)
	}
}

func TestInvalidationOnIngressChange(t *testing.T) {
	var events []Event
	cfg := testConfig()
	cfg.OnEvent = func(ev Event) { events = append(events, ev) }
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
	e.AdvanceTo(base.Add(time.Minute))
	if len(e.Mapped()) != 1 {
		t.Fatal("setup: not classified")
	}
	// Ingress moves to B (e.g. maintenance, §5.3.4): flood B samples.
	for i := 0; i < 5; i++ {
		feedN(e, base.Add(time.Duration(i+1)*time.Minute), netip.MustParseAddr("10.0.0.0"), 400, inB)
		e.AdvanceTo(base.Add(time.Duration(i+2) * time.Minute))
	}
	// Old classification must have been invalidated and the range
	// reclassified at B.
	mapped := e.Mapped()
	if len(mapped) != 1 || mapped[0].Ingress != inB {
		t.Fatalf("after shift: %+v", mapped)
	}
	if e.Stats().Invalidations == 0 {
		t.Error("expected an invalidation")
	}
	var kinds []EventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	wantSeq := []EventKind{EventClassified, EventInvalidated, EventClassified}
	wi := 0
	for _, k := range kinds {
		if wi < len(wantSeq) && k == wantSeq[wi] {
			wi++
		}
	}
	if wi != len(wantSeq) {
		t.Errorf("event kinds %v missing subsequence %v", kinds, wantSeq)
	}
}

func TestDecayExpiresIdleClassifiedRange(t *testing.T) {
	var expired int
	cfg := testConfig()
	cfg.OnEvent = func(ev Event) {
		if ev.Kind == EventExpired {
			expired++
		}
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
	e.AdvanceTo(base.Add(time.Minute))
	if len(e.Mapped()) != 1 {
		t.Fatal("setup: not classified")
	}
	// Silence. Counters shrink by the cumulative decay product, which
	// falls roughly like (idle cycles)^-0.9; 100 samples need a few
	// hundred idle cycles to decay below 1.
	e.AdvanceTo(base.Add(6 * time.Hour))
	if len(e.Mapped()) != 0 {
		t.Fatalf("idle range still mapped: %+v", e.Mapped())
	}
	if expired != 1 {
		t.Errorf("expired events = %d", expired)
	}
	// After expiry + emptiness the tree collapses back to the root: only
	// the two family roots remain active.
	if got := e.RangeCount(); got != 2 {
		t.Errorf("RangeCount = %d, want 2 (roots)", got)
	}
}

func TestNoDecayAblation(t *testing.T) {
	cfg := testConfig()
	cfg.NoDecay = true
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
	e.AdvanceTo(base.Add(time.Minute))
	e.AdvanceTo(base.Add(4 * time.Hour))
	if len(e.Mapped()) != 1 {
		t.Fatal("with NoDecay the classification must persist")
	}
	if e.Stats().Expirations != 0 {
		t.Error("no expirations expected with NoDecay")
	}
}

func TestUnclassifiedIPStateExpiry(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Too few samples to classify (below n(/0) = 66). The 30 distinct
	// sources mask to cidr_max (/28), so they collapse to two per-IP keys:
	// 10.0.0.0/28 and 10.0.0.16/28.
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 30, inA)
	e.AdvanceTo(base.Add(time.Minute))
	if got := e.IPStateCount(); got != 2 {
		t.Fatalf("IPStateCount = %d, want 2 masked keys", got)
	}
	// E = 120 s: after 3+ minutes of silence the per-IP state is gone.
	e.AdvanceTo(base.Add(4 * time.Minute))
	if got := e.IPStateCount(); got != 0 {
		t.Errorf("IPStateCount after expiry = %d", got)
	}
	ri, ok := e.Range(netip.MustParseAddr("10.0.0.1"))
	if !ok || ri.Samples != 0 {
		t.Errorf("range after expiry = %+v ok=%v", ri, ok)
	}
}

func TestJoinAfterConvergence(t *testing.T) {
	cfg := testConfig()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: A in 0.0.0.0/2, B in 64.0.0.0/2 -> splits to /2 level.
	ts := base
	for cycle := 0; cycle < 5; cycle++ {
		feedN(e, ts, netip.MustParseAddr("10.0.0.0"), 60, inA)
		feedN(e, ts, netip.MustParseAddr("70.0.0.0"), 60, inB)
		ts = ts.Add(time.Minute)
		e.AdvanceTo(ts)
	}
	mapped := e.Mapped()
	if len(mapped) != 2 {
		t.Fatalf("phase 1 mapped = %+v", mapped)
	}
	// Phase 2: the B quadrant remaps to A (CDN shift). The 64.0.0.0/2
	// range gets invalidated, reclassifies as A, then joins its sibling
	// into 0.0.0.0/1.
	for cycle := 0; cycle < 20; cycle++ {
		feedN(e, ts, netip.MustParseAddr("10.0.0.0"), 200, inA)
		feedN(e, ts, netip.MustParseAddr("70.0.0.0"), 200, inA)
		ts = ts.Add(time.Minute)
		e.AdvanceTo(ts)
	}
	mapped = e.Mapped()
	if len(mapped) != 1 {
		t.Fatalf("phase 2 mapped = %+v", mapped)
	}
	if mapped[0].Prefix != netip.MustParsePrefix("0.0.0.0/1") || mapped[0].Ingress != inA {
		t.Errorf("joined range = %+v", mapped[0])
	}
	if e.Stats().Joins == 0 {
		t.Error("expected joins")
	}
}

func TestBundleMapperFoldsInterfaces(t *testing.T) {
	cfg := testConfig()
	cfg.Mapper = mapperFunc(func(in flow.Ingress) flow.Ingress {
		// Interfaces 1 and 2 of router 1 are a LAG -> fold to iface 1.
		if in.Router == 1 && in.Iface == 2 {
			return flow.Ingress{Router: 1, Iface: 1}
		}
		return in
	})
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Traffic alternates between the two LAG members; without folding the
	// top share would be 0.5 < q and the root would keep splitting.
	a := netip.MustParseAddr("10.0.0.0").As4()
	for i := 0; i < 100; i++ {
		a[3] = byte(i)
		in := flow.Ingress{Router: 1, Iface: flow.IfaceID(1 + i%2)}
		e.Observe(flow.Record{Ts: base, Src: netip.AddrFrom4(a), In: in, Bytes: 100})
	}
	e.AdvanceTo(base.Add(time.Minute))
	mapped := e.Mapped()
	if len(mapped) != 1 || mapped[0].Ingress != (flow.Ingress{Router: 1, Iface: 1}) {
		t.Fatalf("mapped = %+v", mapped)
	}
	if e.Stats().Splits != 0 {
		t.Errorf("Splits = %d, want 0 with bundle folding", e.Stats().Splits)
	}
}

type mapperFunc func(flow.Ingress) flow.Ingress

func (f mapperFunc) Logical(in flow.Ingress) flow.Ingress { return f(in) }

func TestByteCountingMode(t *testing.T) {
	cfg := testConfig()
	cfg.CountBytes = true
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One heavy-bytes ingress vs many light flows: byte counting must let
	// A dominate even though B has more flows.
	a := netip.MustParseAddr("10.0.0.0").As4()
	for i := 0; i < 5; i++ {
		a[3] = byte(i)
		e.Observe(flow.Record{Ts: base, Src: netip.AddrFrom4(a), In: inA, Bytes: 1_000_000})
	}
	for i := 0; i < 50; i++ {
		a[3] = byte(100 + i)
		e.Observe(flow.Record{Ts: base, Src: netip.AddrFrom4(a), In: inB, Bytes: 100})
	}
	e.AdvanceTo(base.Add(time.Minute))
	mapped := e.Mapped()
	if len(mapped) != 1 || mapped[0].Ingress != inA {
		t.Fatalf("byte mode mapped = %+v", mapped)
	}
}

func TestSplitKeepsSamples(t *testing.T) {
	cfg := testConfig()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 80, inA)
	feedN(e, base, netip.MustParseAddr("200.0.0.0"), 80, inB)
	e.AdvanceTo(base.Add(time.Minute)) // split happens
	// Immediately after the split the children own the redistributed
	// samples: totals must be preserved exactly.
	lo, ok := e.Range(netip.MustParseAddr("10.0.0.1"))
	if !ok || lo.Samples != 80 {
		t.Fatalf("low child = %+v ok=%v", lo, ok)
	}
	hi, ok := e.Range(netip.MustParseAddr("200.0.0.1"))
	if !ok || hi.Samples != 80 {
		t.Fatalf("high child = %+v", hi)
	}
}

func TestSplitAblationDropsState(t *testing.T) {
	cfg := testConfig()
	cfg.KeepIPStateOnSplit = false
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 80, inA)
	feedN(e, base, netip.MustParseAddr("200.0.0.0"), 80, inB)
	e.AdvanceTo(base.Add(time.Minute))
	lo, ok := e.Range(netip.MustParseAddr("10.0.0.1"))
	if !ok || lo.Samples != 0 {
		t.Fatalf("ablation low child = %+v", lo)
	}
	// Convergence still happens, just a cycle later.
	for i := 1; i <= 3; i++ {
		feedN(e, base.Add(time.Duration(i)*time.Minute), netip.MustParseAddr("10.0.0.0"), 80, inA)
		feedN(e, base.Add(time.Duration(i)*time.Minute), netip.MustParseAddr("200.0.0.0"), 80, inB)
		e.AdvanceTo(base.Add(time.Duration(i+1) * time.Minute))
	}
	if len(e.Mapped()) != 2 {
		t.Fatalf("ablation mapped = %+v", e.Mapped())
	}
}

func TestCIDRMaxStopsSplitting(t *testing.T) {
	cfg := testConfig()
	cfg.CIDRMax4 = 4
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two ingresses mixed within the same /4: the algorithm may split down
	// to /4 but never beyond.
	ts := base
	for cycle := 0; cycle < 8; cycle++ {
		a := netip.MustParseAddr("10.0.0.0").As4()
		for i := 0; i < 120; i++ {
			a[3] = byte(i)
			in := inA
			if i%2 == 0 {
				in = inB
			}
			e.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: in, Bytes: 9})
		}
		ts = ts.Add(time.Minute)
		e.AdvanceTo(ts)
	}
	for _, ri := range e.Snapshot() {
		if ri.Prefix.Addr().Is4() && ri.Prefix.Bits() > 4 {
			t.Errorf("range %v beyond cidr_max /4", ri.Prefix)
		}
	}
	if len(e.Mapped()) != 0 {
		t.Errorf("mixed-at-cidrmax range must stay unclassified: %+v", e.Mapped())
	}
}

func TestIPv6Classification(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := netip.MustParseAddr("2001:db8::").As16()
	for i := 0; i < 300; i++ {
		a[15] = byte(i)
		a[14] = byte(i >> 8)
		e.Observe(flow.Record{Ts: base, Src: netip.AddrFrom16(a), In: inC, Bytes: 64})
	}
	e.AdvanceTo(base.Add(time.Minute))
	mapped := e.Mapped()
	if len(mapped) != 1 {
		t.Fatalf("v6 mapped = %+v", mapped)
	}
	if mapped[0].Prefix != netip.MustParsePrefix("::/0") || mapped[0].Ingress != inC {
		t.Errorf("v6 range = %+v", mapped[0])
	}
	if e.Stats().RecordsV6 != 300 {
		t.Errorf("RecordsV6 = %d", e.Stats().RecordsV6)
	}
}

func TestLookupTable(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
	feedN(e, base, netip.MustParseAddr("200.0.0.0"), 100, inB)
	e.AdvanceTo(base.Add(2 * time.Minute))
	lt := e.LookupTable()
	if lt.Len() != 2 {
		t.Fatalf("LookupTable len = %d", lt.Len())
	}
	if _, in, ok := lt.Lookup(netip.MustParseAddr("10.1.2.3")); !ok || in != inA {
		t.Errorf("lookup low = %v ok=%v", in, ok)
	}
	if _, in, ok := lt.Lookup(netip.MustParseAddr("222.1.2.3")); !ok || in != inB {
		t.Errorf("lookup high = %v ok=%v", in, ok)
	}
}

func TestInvalidAndUnusableRecords(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(flow.Record{})              // invalid
	e.Observe(flow.Record{Ts: base})      // no src
	e.Observe(rec(base, "10.0.0.1", inA)) // fine
	if got := e.Stats().RecordsDropped; got != 2 {
		t.Errorf("RecordsDropped = %d", got)
	}
	if got := e.Stats().Records; got != 1 {
		t.Errorf("Records = %d", got)
	}
}

func TestAdvanceBeforeStartIsNoop(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.AdvanceTo(base.Add(time.Hour))
	e.ForceCycle()
	if e.Stats().Cycles != 0 {
		t.Errorf("Cycles = %d before first record", e.Stats().Cycles)
	}
}

func TestMultipleCyclesAcrossGap(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(rec(base, "10.0.0.1", inA))
	e.AdvanceTo(base.Add(10 * time.Minute))
	// A 10-minute advance runs 10 one-minute cycles, not 1.
	if got := e.Stats().Cycles; got != 10 {
		t.Errorf("Cycles = %d, want 10", got)
	}
}

// TestPartitionInvariant drives random traffic through many cycles and
// verifies the core invariant: the active ranges always exactly partition
// the IPv4 space (every address is covered by exactly one active range).
func TestPartitionInvariant(t *testing.T) {
	cfg := testConfig()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	ingresses := []flow.Ingress{inA, inB, inC, inD}
	ts := base
	for cycle := 0; cycle < 30; cycle++ {
		for i := 0; i < 500; i++ {
			var a [4]byte
			r.Read(a[:])
			in := ingresses[int(a[0])%4] // ingress correlates with address
			if r.Intn(20) == 0 {
				in = ingresses[r.Intn(4)] // noise
			}
			e.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: in, Bytes: 500})
		}
		ts = ts.Add(time.Minute)
		e.AdvanceTo(ts)

		// Invariant 1: random addresses always covered.
		for i := 0; i < 50; i++ {
			var a [4]byte
			r.Read(a[:])
			if _, ok := e.Range(netip.AddrFrom4(a)); !ok {
				t.Fatalf("cycle %d: address %v uncovered", cycle, netip.AddrFrom4(a))
			}
		}
		// Invariant 2: no two active v4 ranges overlap.
		snap := e.Snapshot()
		var v4 []netip.Prefix
		for _, ri := range snap {
			if ri.Prefix.Addr().Is4() {
				v4 = append(v4, ri.Prefix)
			}
		}
		for i := 0; i < len(v4); i++ {
			for j := i + 1; j < len(v4); j++ {
				if v4[i].Overlaps(v4[j]) {
					t.Fatalf("cycle %d: ranges %v and %v overlap", cycle, v4[i], v4[j])
				}
			}
		}
	}
	if e.Stats().Records == 0 || e.RangeCount() < 2 {
		t.Fatal("sanity")
	}
}

// TestDeterminism runs the same workload twice and requires identical
// output.
func TestDeterminism(t *testing.T) {
	run := func() []RangeInfo {
		e, err := NewEngine(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(5))
		ts := base
		ingresses := []flow.Ingress{inA, inB, inC}
		for cycle := 0; cycle < 10; cycle++ {
			for i := 0; i < 300; i++ {
				var a [4]byte
				r.Read(a[:])
				e.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: ingresses[int(a[0])%3], Bytes: 100})
			}
			ts = ts.Add(time.Minute)
			e.AdvanceTo(ts)
		}
		return e.Snapshot()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Prefix != b[i].Prefix || a[i].Classified != b[i].Classified ||
			a[i].Ingress != b[i].Ingress || a[i].Samples != b[i].Samples {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEngineString(t *testing.T) {
	e, _ := NewEngine(testConfig())
	if e.String() == "" {
		t.Error("empty String")
	}
}

func TestSnapshotSortedAndRangeMiss(t *testing.T) {
	e, _ := NewEngine(testConfig())
	snap := e.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("fresh engine snapshot = %d", len(snap))
	}
	if !snap[0].Prefix.Addr().Is4() || snap[1].Prefix.Addr().Is4() {
		t.Error("snapshot must sort IPv4 before IPv6")
	}
	if _, ok := e.Range(netip.Addr{}); ok {
		t.Error("Range of invalid addr should miss")
	}
}

// TestCounterConsistency drives random traffic and asserts the bookkeeping
// invariant on every active range: the total equals the sum of per-ingress
// counters (within float tolerance), and confidence is the top counter's
// share.
func TestCounterConsistency(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	ingresses := []flow.Ingress{inA, inB, inC, inD}
	ts := base
	for cycle := 0; cycle < 20; cycle++ {
		for i := 0; i < 400; i++ {
			var a [4]byte
			r.Read(a[:])
			e.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: ingresses[int(a[1])%4], Bytes: 100})
		}
		ts = ts.Add(time.Minute)
		e.AdvanceTo(ts)
		for _, ri := range e.Snapshot() {
			sum := 0.0
			top := 0.0
			for _, c := range ri.Counters {
				sum += c
				if c > top {
					top = c
				}
			}
			if diff := ri.Samples - sum; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("cycle %d: range %v total %v != counter sum %v", cycle, ri.Prefix, ri.Samples, sum)
			}
			if ri.Samples > 0 {
				wantConf := top / ri.Samples
				if !ri.Classified && (ri.Confidence-wantConf > 1e-9 || wantConf-ri.Confidence > 1e-9) {
					t.Fatalf("range %v confidence %v != top share %v", ri.Prefix, ri.Confidence, wantConf)
				}
			}
			if ri.Samples < 0 {
				t.Fatalf("range %v negative total %v", ri.Prefix, ri.Samples)
			}
		}
	}
}

// TestNoWallClockDependence verifies the engine is purely virtual-time: two
// runs of the same workload separated by real sleep produce identical
// output.
func TestNoWallClockDependence(t *testing.T) {
	run := func(pause bool) []RangeInfo {
		e, err := NewEngine(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
		if pause {
			time.Sleep(50 * time.Millisecond)
		}
		feedN(e, base.Add(time.Minute), netip.MustParseAddr("200.0.0.0"), 100, inB)
		e.AdvanceTo(base.Add(3 * time.Minute))
		return e.Snapshot()
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Prefix != b[i].Prefix || a[i].Ingress != b[i].Ingress || a[i].Samples != b[i].Samples {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestCycleLogging verifies the structured per-cycle log: one "cycle" record
// per stage-2 cycle carrying the cycle number, duration, range delta, and
// (when churn happened) the top ingress.
func TestCycleLogging(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
	e.AdvanceTo(base.Add(3 * time.Minute))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if want := int(e.Stats().Cycles); len(lines) != want {
		t.Fatalf("got %d log lines, want %d (one per cycle):\n%s", len(lines), want, buf.String())
	}
	first := lines[0]
	for _, attr := range []string{"msg=cycle", "cycle=1", "duration=", "ranges=", "range_delta=", "classified=1", "top_ingress=R1.1"} {
		if !strings.Contains(first, attr) {
			t.Errorf("first cycle line missing %q: %s", attr, first)
		}
	}
}

// TestCycleLoggingDisabled: a logger above Info level must suppress cycle
// records (and the churn bookkeeping behind them).
func TestCycleLoggingDisabled(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
	e.AdvanceTo(base.Add(3 * time.Minute))
	if buf.Len() != 0 {
		t.Errorf("warn-level logger still emitted cycle records:\n%s", buf.String())
	}
}

// TestEngineTelemetryExposition: the engine's own registry must expose the
// headline metrics with values matching Stats.
func TestEngineTelemetryExposition(t *testing.T) {
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
	e.AdvanceTo(base.Add(2 * time.Minute))

	var b bytes.Buffer
	if err := e.Telemetry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	st := e.Stats()
	for _, want := range []string{
		fmt.Sprintf("ipd_records_total %d", st.Records),
		fmt.Sprintf("ipd_active_ranges %d", st.LastCycleRanges),
		fmt.Sprintf("ipd_cycles_total %d", st.Cycles),
		fmt.Sprintf("ipd_classifications_total %d", st.Classifications),
		"ipd_cycle_duration_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}
