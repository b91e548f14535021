package eval

import (
	"net/netip"
	"testing"
	"time"

	"ipd/internal/bgp"
	"ipd/internal/core"
	"ipd/internal/flow"
	"ipd/internal/netaddr"
	"ipd/internal/topology"
)

var (
	inA = flow.Ingress{Router: 1, Iface: 1}
	inB = flow.Ingress{Router: 2, Iface: 1}
	inC = flow.Ingress{Router: 3, Iface: 1}
)

var t0 = time.Unix(1_600_000_000, 0).UTC()

func mustPrefix(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// evalTopo: PoP 1 (C1): routers 1, 2; PoP 2 (C2): router 3.
func evalTopo(t *testing.T) *topology.T {
	t.Helper()
	tp := topology.New()
	for _, step := range []func() error{
		func() error { return tp.AddPoP(1, 1) },
		func() error { return tp.AddPoP(2, 2) },
		func() error { return tp.AddRouter(1, 1) },
		func() error { return tp.AddRouter(2, 1) },
		func() error { return tp.AddRouter(3, 2) },
		func() error { return tp.AddInterface(inA, 64500, topology.LinkPNI) },
		func() error { return tp.AddInterface(flow.Ingress{Router: 1, Iface: 2}, 64500, topology.LinkPNI) },
		func() error { return tp.AddInterface(inB, 64501, topology.LinkTransit) },
		func() error { return tp.AddInterface(inC, 64502, topology.LinkPublicPeering) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tp.MakeBundle(inA, flow.Ingress{Router: 1, Iface: 2}); err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestPredictorClassify(t *testing.T) {
	tp := evalTopo(t)
	table := netaddr.NewTable([]netaddr.Entry[flow.Ingress]{{Prefix: mustPrefix(t, "10.0.0.0/8"), Val: inA}})
	p := NewPredictor(table, tp)

	if in, ok := p.Predict(netip.MustParseAddr("10.1.2.3")); !ok || in != inA {
		t.Errorf("Predict = %v ok=%v", in, ok)
	}
	// Correct prediction.
	kind, mapped := p.Classify(flow.Record{Ts: t0, Src: netip.MustParseAddr("10.1.2.3"), In: inA})
	if !mapped || kind != topology.MissNone {
		t.Errorf("hit: kind=%v mapped=%v", kind, mapped)
	}
	// Interface miss (same router, other iface).
	kind, _ = p.Classify(flow.Record{Ts: t0, Src: netip.MustParseAddr("10.1.2.3"), In: flow.Ingress{Router: 1, Iface: 5}})
	if kind != topology.MissInterface {
		t.Errorf("interface miss: %v", kind)
	}
	// Router miss (same PoP).
	kind, _ = p.Classify(flow.Record{Ts: t0, Src: netip.MustParseAddr("10.1.2.3"), In: inB})
	if kind != topology.MissRouter {
		t.Errorf("router miss: %v", kind)
	}
	// PoP miss.
	kind, _ = p.Classify(flow.Record{Ts: t0, Src: netip.MustParseAddr("10.1.2.3"), In: inC})
	if kind != topology.MissPoP {
		t.Errorf("pop miss: %v", kind)
	}
	// Unmapped source.
	if _, mapped := p.Classify(flow.Record{Ts: t0, Src: netip.MustParseAddr("99.0.0.1"), In: inA}); mapped {
		t.Error("unmapped source should report mapped=false")
	}
}

func TestOutcomeAccounting(t *testing.T) {
	var o Outcome
	o.Accumulate(topology.MissNone, true)
	o.Accumulate(topology.MissNone, true)
	o.Accumulate(topology.MissPoP, true)
	o.Accumulate(topology.MissNone, false) // unmapped
	if o.Flows != 4 || o.Mapped != 3 || o.Correct != 2 {
		t.Errorf("outcome = %+v", o)
	}
	if got := o.Accuracy(); got != 2.0/3 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := o.Coverage(); got != 0.75 {
		t.Errorf("Coverage = %v", got)
	}
	var empty Outcome
	if empty.Accuracy() != 0 || empty.Coverage() != 0 {
		t.Error("empty outcome should be 0")
	}
	var merged Outcome
	merged.Merge(o)
	merged.Merge(o)
	if merged.Flows != 8 || merged.Misses[topology.MissPoP] != 2 {
		t.Errorf("merged = %+v", merged)
	}
}

func mapped(t *testing.T, rows ...[3]string) []core.RangeInfo {
	t.Helper()
	var out []core.RangeInfo
	for _, r := range rows {
		in := inA
		switch r[1] {
		case "B":
			in = inB
		case "C":
			in = inC
		}
		samples := 100.0
		out = append(out, core.RangeInfo{
			Prefix: mustPrefix(t, r[0]), Classified: true, Ingress: in, Samples: samples,
		})
	}
	return out
}

func TestStabilityTracker(t *testing.T) {
	tr := NewStabilityTracker()
	// Prefix X stays on A for 2 steps, then moves to B; prefix Y vanishes
	// after one step.
	tr.Observe(t0, mapped(t, [3]string{"10.0.0.0/8", "A"}, [3]string{"20.0.0.0/8", "A"}))
	tr.Observe(t0.Add(time.Hour), mapped(t, [3]string{"10.0.0.0/8", "A"}))
	tr.Observe(t0.Add(2*time.Hour), mapped(t, [3]string{"10.0.0.0/8", "B"}))
	phases := tr.Finish()
	if len(phases) != 3 {
		t.Fatalf("phases = %+v", phases)
	}
	byPfx := map[string][]StablePhase{}
	for _, p := range phases {
		byPfx[p.Prefix.String()] = append(byPfx[p.Prefix.String()], p)
	}
	y := byPfx["20.0.0.0/8"]
	if len(y) != 1 || y[0].Duration != time.Hour {
		t.Errorf("Y phases = %+v", y)
	}
	x := byPfx["10.0.0.0/8"]
	if len(x) != 2 {
		t.Fatalf("X phases = %+v", x)
	}
	if x[0].Duration != 2*time.Hour || x[0].Ingress != inA {
		t.Errorf("X first phase = %+v", x[0])
	}
	// The second X phase is still open at Finish and closes with 0 length.
	if x[1].Ingress != inB || x[1].Duration != 0 {
		t.Errorf("X second phase = %+v", x[1])
	}
	ds := Durations(phases)
	if len(ds) != 3 {
		t.Errorf("Durations = %v", ds)
	}
}

func TestStabilityTrackerMaxSamples(t *testing.T) {
	tr := NewStabilityTracker()
	ri := core.RangeInfo{Prefix: mustPrefix(t, "10.0.0.0/8"), Classified: true, Ingress: inA, Samples: 10}
	tr.Observe(t0, []core.RangeInfo{ri})
	ri.Samples = 500
	tr.Observe(t0.Add(time.Hour), []core.RangeInfo{ri})
	ri.Samples = 50 // decayed
	tr.Observe(t0.Add(2*time.Hour), []core.RangeInfo{ri})
	phases := tr.Finish()
	if len(phases) != 1 || phases[0].MaxSamples != 500 {
		t.Errorf("phases = %+v", phases)
	}
}

func TestMatchStable(t *testing.T) {
	t1 := mapped(t,
		[3]string{"10.0.0.0/8", "A"},
		[3]string{"20.0.0.0/8", "B"},
		[3]string{"30.0.0.0/8", "C"},
	)
	// t2: 10/8 unchanged; 20/8 now on A (unstable); 30/8 gone.
	t2 := mapped(t,
		[3]string{"10.0.0.0/8", "A"},
		[3]string{"20.0.0.0/8", "A"},
	)
	res := MatchStable(t1, t2)
	if res.Matching < 0.66 || res.Matching > 0.67 {
		t.Errorf("Matching = %v, want 2/3", res.Matching)
	}
	if res.Stable < 0.33 || res.Stable > 0.34 {
		t.Errorf("Stable = %v, want 1/3", res.Stable)
	}
	// Re-partitioning: t2 splits 10/8 into halves with different ingress.
	t2b := mapped(t,
		[3]string{"10.0.0.0/9", "A"},
		[3]string{"10.128.0.0/9", "B"},
	)
	res = MatchStable(mapped(t, [3]string{"10.0.0.0/8", "A"}), t2b)
	if res.Matching != 1 {
		t.Errorf("repartition Matching = %v", res.Matching)
	}
	if res.Stable != 0.5 {
		t.Errorf("repartition Stable = %v", res.Stable)
	}
	// Empty input.
	if res := MatchStable(nil, t2); res.Matching != 0 || res.Stable != 0 {
		t.Errorf("empty = %+v", res)
	}
}

func TestSpecificity(t *testing.T) {
	var routes []bgp.Route
	for _, p := range []string{"10.0.0.0/8", "20.0.0.0/16", "20.1.0.0/16"} {
		routes = append(routes, bgp.Route{Prefix: mustPrefix(t, p), Origin: 64500, NextHops: []flow.RouterID{1}, Best: 1})
	}
	tb, err := bgp.NewTable(t0, routes)
	if err != nil {
		t.Fatal(err)
	}
	ranges := mapped(t,
		[3]string{"10.0.0.0/8", "A"},  // exact
		[3]string{"10.1.0.0/16", "A"}, // more specific
		[3]string{"20.0.0.0/12", "A"}, // less specific (contains the two /16s)
		[3]string{"99.0.0.0/8", "A"},  // unrelated
	)
	res := Specificity(ranges, tb)
	if res.Exact != 1 || res.MoreSpecific != 1 || res.LessSpecific != 1 || res.Unrelated != 1 {
		t.Errorf("specificity = %+v", res)
	}
	if res.Total() != 4 {
		t.Errorf("Total = %d", res.Total())
	}
}

func TestSymmetry(t *testing.T) {
	// Egress for 10/8 is router 1 (same as ingress A); for 20/8 router 9.
	tb, err := bgp.NewTable(t0, []bgp.Route{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Origin: 64500, NextHops: []flow.RouterID{1}, Best: 1},
		{Prefix: mustPrefix(t, "20.0.0.0/8"), Origin: 64501, NextHops: []flow.RouterID{9}, Best: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	ranges := mapped(t, [3]string{"10.1.0.0/16", "A"}, [3]string{"20.1.0.0/16", "B"})
	groups := Symmetry(ranges, tb, func(p netip.Prefix) []string {
		out := []string{"ALL"}
		if p.Addr().As4()[0] == 10 {
			out = append(out, "TOP5")
		}
		return out
	})
	if got := groups["ALL"]; got.Ranges != 2 || got.Ratio() != 0.5 {
		t.Errorf("ALL = %+v", got)
	}
	if got := groups["TOP5"]; got.Ranges != 1 || got.Ratio() != 1 {
		t.Errorf("TOP5 = %+v", got)
	}
	var empty SymmetryResult
	if empty.Ratio() != 0 {
		t.Error("empty ratio")
	}
	// Skipped groups and unrouted ranges.
	groups = Symmetry(mapped(t, [3]string{"99.0.0.0/8", "A"}), tb, func(netip.Prefix) []string { return nil })
	if len(groups) != 0 {
		t.Errorf("skip-all = %v", groups)
	}
}

func TestDetectViolations(t *testing.T) {
	tp := evalTopo(t)
	owner := func(p netip.Prefix) (topology.ASN, bool) {
		switch p.Addr().As4()[0] {
		case 10:
			return 64502, true // tier-1 peer attached at inC
		case 20:
			return 64500, true // non-tier-1
		}
		return 0, false
	}
	isT1 := func(a topology.ASN) bool { return a == 64502 }
	ranges := mapped(t,
		[3]string{"10.0.0.0/16", "C"}, // enters via its own peering link: fine
		[3]string{"10.1.0.0/16", "B"}, // enters via AS 64501's transit link: violation
		[3]string{"20.0.0.0/16", "B"}, // not tier-1: ignored
		[3]string{"99.0.0.0/8", "A"},  // unowned: ignored
	)
	vs := DetectViolations(ranges, tp, owner, isT1)
	if len(vs) != 1 {
		t.Fatalf("violations = %+v", vs)
	}
	v := vs[0]
	if v.Peer != 64502 || v.Ingress != inB || v.ViaAS != 64501 || v.ViaClass != topology.LinkTransit {
		t.Errorf("violation = %+v", v)
	}
}

func TestIngressSpread(t *testing.T) {
	tp := evalTopo(t)
	s := NewIngressSpread(tp)
	add := func(src string, in flow.Ingress, n int) {
		for i := 0; i < n; i++ {
			s.Add(flow.Record{Ts: t0, Src: netip.MustParseAddr(src), In: in})
		}
	}
	add("10.0.0.1", inA, 80)
	add("10.0.0.2", flow.Ingress{Router: 1, Iface: 2}, 10) // bundle sibling of inA -> folded
	add("10.0.0.3", inB, 10)
	add("20.0.0.1", inC, 5)
	s.Add(flow.Record{Ts: t0, Src: netip.MustParseAddr("2001:db8::1"), In: inA}) // ignored
	res := s.Results()
	if len(res) != 2 {
		t.Fatalf("results = %+v", res)
	}
	var ten PerPrefix
	for _, r := range res {
		if r.Prefix == mustPrefix(t, "10.0.0.0/24") {
			ten = r
		}
	}
	if ten.Ingresses != 2 {
		t.Errorf("ingress count = %d, want 2 (bundle folded)", ten.Ingresses)
	}
	if ten.TopShare != 0.9 || ten.Flows != 100 {
		t.Errorf("ten = %+v", ten)
	}
}

func TestAggregateRanges(t *testing.T) {
	infos := mapped(t,
		[3]string{"10.0.0.0/8", "A"},
		[3]string{"20.0.0.0/8", "A"},
		[3]string{"30.0.0.0/24", "A"},
	)
	infos = append(infos, core.RangeInfo{Prefix: mustPrefix(t, "2001:db8::/32"), Classified: true})
	agg := AggregateRanges(infos)
	if agg.Count[8] != 2 || agg.Count[24] != 1 {
		t.Errorf("Count = %v", agg.Count)
	}
	if agg.Space[8] != 2*(1<<24) || agg.Space[24] != 256 {
		t.Errorf("Space = %v", agg.Space)
	}
	if got := agg.Lengths(); len(got) != 2 || got[0] != 8 || got[1] != 24 {
		t.Errorf("Lengths = %v", got)
	}
	if agg.TotalCount() != 3 {
		t.Errorf("TotalCount = %d", agg.TotalCount())
	}
	if agg.TotalSpace() != 2*(1<<24)+256 {
		t.Errorf("TotalSpace = %v", agg.TotalSpace())
	}
}
