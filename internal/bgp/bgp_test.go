package bgp

import (
	"net/netip"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/topology"
)

func mustPrefix(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ts(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

// mustTable builds a table from routes that must all be valid.
func mustTable(t *testing.T, at time.Time, routes ...Route) *Table {
	t.Helper()
	tb, err := NewTable(at, routes)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestInsertValidation(t *testing.T) {
	if _, err := NewTable(ts(0), []Route{{Prefix: mustPrefix(t, "10.0.0.0/8")}}); err == nil {
		t.Error("route without next hops should fail")
	}
	if _, err := NewTable(ts(0), []Route{{
		Prefix: mustPrefix(t, "10.0.0.0/8"), NextHops: []flow.RouterID{1, 2}, Best: 3,
	}}); err == nil {
		t.Error("best not among candidates should fail")
	}
	if _, err := NewTable(ts(0), []Route{{NextHops: []flow.RouterID{1}, Best: 1}}); err == nil {
		t.Error("invalid prefix should fail")
	}
	if _, err := NewTable(ts(0), []Route{{Prefix: mustPrefix(t, "::ffff:10.0.0.0/104"), NextHops: []flow.RouterID{1}, Best: 1}}); err == nil {
		t.Error("4-in-6 prefix longer than IPv4 should fail")
	}
}

func TestInsertDedupAndSort(t *testing.T) {
	tb := mustTable(t, ts(0), Route{
		Prefix:   mustPrefix(t, "10.0.0.0/8"),
		Origin:   64500,
		NextHops: []flow.RouterID{5, 1, 5, 3},
		Best:     3,
	})
	r, ok := tb.Get(mustPrefix(t, "10.0.0.0/8"))
	if !ok {
		t.Fatal("Get missed")
	}
	want := []flow.RouterID{1, 3, 5}
	if len(r.NextHops) != 3 || r.NextHops[0] != want[0] || r.NextHops[1] != want[1] || r.NextHops[2] != want[2] {
		t.Errorf("NextHops = %v, want %v", r.NextHops, want)
	}
}

func buildTable(t *testing.T) *Table {
	t.Helper()
	return mustTable(t, ts(100),
		Route{Prefix: mustPrefix(t, "10.0.0.0/8"), Origin: 64500, NextHops: []flow.RouterID{1, 2}, Best: 1},
		Route{Prefix: mustPrefix(t, "10.1.0.0/16"), Origin: 64500, NextHops: []flow.RouterID{3}, Best: 3},
		Route{Prefix: mustPrefix(t, "192.0.2.0/24"), Origin: 64501, NextHops: []flow.RouterID{4, 5, 6}, Best: 5},
	)
}

func TestLookups(t *testing.T) {
	tb := buildTable(t)
	if tb.NumRoutes() != 3 {
		t.Fatalf("NumRoutes = %d", tb.NumRoutes())
	}
	r, ok := tb.LookupAddr(netip.MustParseAddr("10.1.2.3"))
	if !ok || r.Prefix != mustPrefix(t, "10.1.0.0/16") {
		t.Errorf("LookupAddr = %+v ok=%v", r, ok)
	}
	r, ok = tb.LookupAddr(netip.MustParseAddr("10.9.9.9"))
	if !ok || r.Prefix != mustPrefix(t, "10.0.0.0/8") {
		t.Errorf("LookupAddr fallback = %+v", r)
	}
	if _, ok := tb.LookupAddr(netip.MustParseAddr("8.8.8.8")); ok {
		t.Error("unrouted address should miss")
	}
	eg, ok := tb.EgressRouter(netip.MustParseAddr("192.0.2.77"))
	if !ok || eg != 5 {
		t.Errorf("EgressRouter = %d ok=%v", eg, ok)
	}
	if _, ok := tb.EgressRouter(netip.MustParseAddr("8.8.8.8")); ok {
		t.Error("unrouted egress should miss")
	}
	r, ok = tb.LookupPrefix(mustPrefix(t, "10.1.2.0/24"))
	if !ok || r.Prefix != mustPrefix(t, "10.1.0.0/16") {
		t.Errorf("LookupPrefix = %+v", r)
	}
	if _, ok := tb.Get(mustPrefix(t, "10.2.0.0/16")); ok {
		t.Error("Get of absent exact prefix should miss")
	}
}

func TestPrefixesOfAndNextHopCounts(t *testing.T) {
	tb := buildTable(t)
	ps := tb.PrefixesOf(64500)
	if len(ps) != 2 {
		t.Fatalf("PrefixesOf = %v", ps)
	}
	all := tb.NextHopCounts(nil)
	if len(all) != 3 {
		t.Fatalf("NextHopCounts(nil) = %v", all)
	}
	sum := 0
	for _, c := range all {
		sum += c
	}
	if sum != 2+1+3 {
		t.Errorf("counts sum = %d", sum)
	}
	only := tb.NextHopCounts(map[topology.ASN]bool{64501: true})
	if len(only) != 1 || only[0] != 3 {
		t.Errorf("filtered counts = %v", only)
	}
}

func TestRoutesSorted(t *testing.T) {
	tb := buildTable(t)
	rs := tb.Routes()
	if len(rs) != 3 {
		t.Fatalf("Routes = %d", len(rs))
	}
	if rs[0].Prefix != mustPrefix(t, "10.0.0.0/8") || rs[2].Prefix != mustPrefix(t, "192.0.2.0/24") {
		t.Errorf("order = %v, %v, %v", rs[0].Prefix, rs[1].Prefix, rs[2].Prefix)
	}
}

func TestDumpSeries(t *testing.T) {
	var s DumpSeries
	for _, sec := range []int64{100, 200, 300} {
		if err := s.Add(mustTable(t, ts(sec))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if err := s.Add(mustTable(t, ts(250))); err == nil {
		t.Error("out-of-order Add should fail")
	}
	if err := s.Add(mustTable(t, ts(300))); err == nil {
		t.Error("duplicate-time Add should fail")
	}
	if _, ok := s.At(ts(50)); ok {
		t.Error("At before first dump should miss")
	}
	tb, ok := s.At(ts(100))
	if !ok || !tb.At.Equal(ts(100)) {
		t.Errorf("At(100) = %v", tb.At)
	}
	tb, ok = s.At(ts(299))
	if !ok || !tb.At.Equal(ts(200)) {
		t.Errorf("At(299) = %v", tb.At)
	}
	tb, ok = s.At(ts(10000))
	if !ok || !tb.At.Equal(ts(300)) {
		t.Errorf("At(10000) = %v", tb.At)
	}
	if got := len(s.All()); got != 3 {
		t.Errorf("All = %d", got)
	}
}
