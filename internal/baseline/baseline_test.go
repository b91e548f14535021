package baseline

import (
	"net/netip"
	"testing"
	"time"

	"ipd/internal/bgp"
	"ipd/internal/flow"
	"ipd/internal/topology"
)

var (
	inA = flow.Ingress{Router: 1, Iface: 1}
	inB = flow.Ingress{Router: 2, Iface: 1}
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

// topo: router 1 with ifaces 1 (AS 64500) and 2 (AS 64501); router 2 with
// iface 1 (AS 64500); router 3 with no interfaces registered.
func testTopo(t *testing.T) *topology.T {
	t.Helper()
	tp := topology.New()
	for _, step := range []func() error{
		func() error { return tp.AddPoP(1, 1) },
		func() error { return tp.AddRouter(1, 1) },
		func() error { return tp.AddRouter(2, 1) },
		func() error { return tp.AddRouter(3, 1) },
		func() error { return tp.AddInterface(inA, 64500, topology.LinkPNI) },
		func() error { return tp.AddInterface(flow.Ingress{Router: 1, Iface: 2}, 64501, topology.LinkTransit) },
		func() error { return tp.AddInterface(inB, 64500, topology.LinkPNI) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

func TestBGPPredictor(t *testing.T) {
	tp := testTopo(t)
	// 10/8 (origin 64500) egresses via router 1; 20/8 (origin 64501) via
	// router 1 too; 30/8 via router 3 (no inventory).
	tb, err := bgp.NewTable(t0, []bgp.Route{
		{Prefix: mustPrefix(t, "10.0.0.0/8"), Origin: 64500, NextHops: []flow.RouterID{1, 2}, Best: 1},
		{Prefix: mustPrefix(t, "20.0.0.0/8"), Origin: 64501, NextHops: []flow.RouterID{1}, Best: 1},
		{Prefix: mustPrefix(t, "30.0.0.0/8"), Origin: 64502, NextHops: []flow.RouterID{3}, Best: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewBGPPredictor(tb, tp)

	// Origin-AS interface preferred.
	if in, ok := p.Predict(netip.MustParseAddr("10.1.2.3")); !ok || in != inA {
		t.Errorf("10/8 predict = %v ok=%v, want %v", in, ok, inA)
	}
	if in, ok := p.Predict(netip.MustParseAddr("20.1.2.3")); !ok || in != (flow.Ingress{Router: 1, Iface: 2}) {
		t.Errorf("20/8 predict = %v ok=%v", in, ok)
	}
	// Router without inventory: interface 1 guess.
	if in, ok := p.Predict(netip.MustParseAddr("30.1.2.3")); !ok || in != (flow.Ingress{Router: 3, Iface: 1}) {
		t.Errorf("30/8 predict = %v ok=%v", in, ok)
	}
	// Unrouted address: no prediction.
	if _, ok := p.Predict(netip.MustParseAddr("99.0.0.1")); ok {
		t.Error("unrouted predict should miss")
	}

	// Classify: symmetric flow is a hit, asymmetric is a miss.
	kind, mapped := p.Classify(flow.Record{Ts: t0, Src: netip.MustParseAddr("10.1.2.3"), In: inA})
	if !mapped || kind != topology.MissNone {
		t.Errorf("symmetric classify = %v %v", kind, mapped)
	}
	kind, mapped = p.Classify(flow.Record{Ts: t0, Src: netip.MustParseAddr("10.1.2.3"), In: inB})
	if !mapped || kind == topology.MissNone {
		t.Errorf("asymmetric classify = %v %v", kind, mapped)
	}
}

func TestStaticTrainerValidation(t *testing.T) {
	if _, err := NewStaticTrainer(0, nil); err == nil {
		t.Error("bits 0 should fail")
	}
	if _, err := NewStaticTrainer(33, nil); err == nil {
		t.Error("bits 33 should fail")
	}
}

func TestStaticPredictorLearnsDominant(t *testing.T) {
	tp := testTopo(t)
	tr, err := NewStaticTrainer(24, tp)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(src string, in flow.Ingress) flow.Record {
		return flow.Record{Ts: t0, Src: netip.MustParseAddr(src), In: in}
	}
	// 10.0.0.0/24: 3x A, 1x B -> A dominates.
	tr.Observe(rec("10.0.0.1", inA))
	tr.Observe(rec("10.0.0.2", inA))
	tr.Observe(rec("10.0.0.3", inA))
	tr.Observe(rec("10.0.0.4", inB))
	// 10.0.1.0/24: only B.
	tr.Observe(rec("10.0.1.1", inB))
	// IPv6 ignored.
	tr.Observe(rec("2001:db8::1", inA))
	if tr.Prefixes() != 2 {
		t.Fatalf("trained prefixes = %d", tr.Prefixes())
	}
	p := tr.Freeze()
	if p.Len() != 2 {
		t.Fatalf("frozen = %d", p.Len())
	}
	if in, ok := p.Predict(netip.MustParseAddr("10.0.0.99")); !ok || in != inA {
		t.Errorf("10.0.0/24 = %v ok=%v", in, ok)
	}
	if in, ok := p.Predict(netip.MustParseAddr("10.0.1.99")); !ok || in != inB {
		t.Errorf("10.0.1/24 = %v ok=%v", in, ok)
	}
	if _, ok := p.Predict(netip.MustParseAddr("10.0.2.1")); ok {
		t.Error("untrained prefix should miss")
	}
	// Classify path.
	kind, mapped := p.Classify(rec("10.0.0.7", inA))
	if !mapped || kind != topology.MissNone {
		t.Errorf("classify hit = %v %v", kind, mapped)
	}
	if _, mapped := p.Classify(rec("2001:db8::2", inA)); mapped {
		t.Error("v6 classify should be unmapped")
	}
	// The frozen map never changes: feeding the trainer afterwards does
	// not affect p.
	tr.Observe(rec("10.0.0.9", inB))
	if in, _ := p.Predict(netip.MustParseAddr("10.0.0.99")); in != inA {
		t.Error("frozen predictor mutated")
	}
}

func TestStaticPredictorTieBreak(t *testing.T) {
	tr, err := NewStaticTrainer(24, testTopo(t))
	if err != nil {
		t.Fatal(err)
	}
	tr.Observe(flow.Record{Ts: t0, Src: netip.MustParseAddr("10.0.0.1"), In: inB})
	tr.Observe(flow.Record{Ts: t0, Src: netip.MustParseAddr("10.0.0.2"), In: inA})
	p := tr.Freeze()
	// Tie breaks toward the lower (router, iface): inA.
	if in, _ := p.Predict(netip.MustParseAddr("10.0.0.3")); in != inA {
		t.Errorf("tie break = %v, want %v", in, inA)
	}
}
