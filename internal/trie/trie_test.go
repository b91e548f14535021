package trie

import (
	"math/rand"
	"net/netip"
	"testing"
)

func mustPrefix(t testing.TB, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func TestInsertGet(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "a")
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), "b")
	tr.Insert(mustPrefix(t, "10.1.2.0/24"), "c")
	tr.Insert(mustPrefix(t, "192.168.0.0/16"), "d")
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	for p, want := range map[string]string{
		"10.0.0.0/8":     "a",
		"10.1.0.0/16":    "b",
		"10.1.2.0/24":    "c",
		"192.168.0.0/16": "d",
	} {
		got, ok := tr.Get(mustPrefix(t, p))
		if !ok || got != want {
			t.Errorf("Get(%s) = %q ok=%v, want %q", p, got, ok, want)
		}
	}
	if _, ok := tr.Get(mustPrefix(t, "10.2.0.0/16")); ok {
		t.Error("Get of absent prefix should fail")
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New[int]()
	p := mustPrefix(t, "10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	if v, _ := tr.Get(p); v != 2 {
		t.Fatalf("Get = %d, want 2", v)
	}
}

func TestLookupLPM(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), "default")
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "ten")
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), "ten-one")
	tr.Insert(mustPrefix(t, "10.1.2.240/28"), "deep")

	cases := []struct {
		addr, wantP, wantV string
	}{
		{"10.1.2.241", "10.1.2.240/28", "deep"},
		{"10.1.2.1", "10.1.0.0/16", "ten-one"},
		{"10.9.9.9", "10.0.0.0/8", "ten"},
		{"8.8.8.8", "0.0.0.0/0", "default"},
	}
	for _, c := range cases {
		p, v, ok := tr.Lookup(netip.MustParseAddr(c.addr))
		if !ok || p != mustPrefix(t, c.wantP) || v != c.wantV {
			t.Errorf("Lookup(%s) = %v %q ok=%v, want %s %q", c.addr, p, v, ok, c.wantP, c.wantV)
		}
	}
}

func TestLookupMissWithoutDefault(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "ten")
	if _, _, ok := tr.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("Lookup outside all entries should miss")
	}
	if _, _, ok := tr.Lookup(netip.Addr{}); ok {
		t.Error("Lookup of invalid addr should miss")
	}
}

func TestFamiliesIndependent(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "0.0.0.0/0"), "v4")
	tr.Insert(mustPrefix(t, "2001:db8::/32"), "v6")
	if _, v, ok := tr.Lookup(netip.MustParseAddr("2001:db8::1")); !ok || v != "v6" {
		t.Errorf("v6 lookup = %q ok=%v", v, ok)
	}
	if _, _, ok := tr.Lookup(netip.MustParseAddr("2001:dead::1")); ok {
		t.Error("v6 lookup must not fall through to the v4 default")
	}
	if _, v, ok := tr.Lookup(netip.MustParseAddr("1.2.3.4")); !ok || v != "v4" {
		t.Errorf("v4 lookup = %q ok=%v", v, ok)
	}
}

func TestLookup4In6(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "192.0.2.0/24"), "doc")
	mapped := netip.AddrFrom16(netip.MustParseAddr("::ffff:192.0.2.77").As16())
	if _, v, ok := tr.Lookup(mapped); !ok || v != "doc" {
		t.Errorf("4-in-6 lookup = %q ok=%v, want doc", v, ok)
	}
}

func TestLookupPrefix(t *testing.T) {
	tr := New[string]()
	tr.Insert(mustPrefix(t, "10.0.0.0/8"), "a")
	tr.Insert(mustPrefix(t, "10.1.0.0/16"), "b")
	p, v, ok := tr.LookupPrefix(mustPrefix(t, "10.1.2.0/24"))
	if !ok || p != mustPrefix(t, "10.1.0.0/16") || v != "b" {
		t.Errorf("LookupPrefix(/24) = %v %q ok=%v", p, v, ok)
	}
	// Exact match counts.
	p, _, ok = tr.LookupPrefix(mustPrefix(t, "10.1.0.0/16"))
	if !ok || p != mustPrefix(t, "10.1.0.0/16") {
		t.Errorf("LookupPrefix(exact) = %v ok=%v", p, ok)
	}
	// A shorter query than any entry misses.
	if _, _, ok := tr.LookupPrefix(mustPrefix(t, "0.0.0.0/0")); ok {
		t.Error("LookupPrefix(/0) should miss")
	}
}

func TestWalkOrder(t *testing.T) {
	tr := New[int]()
	ins := []string{"10.0.0.0/8", "10.128.0.0/9", "192.168.1.0/24", "2001:db8::/32"}
	for i, s := range ins {
		tr.Insert(mustPrefix(t, s), i)
	}
	var got []netip.Prefix
	tr.Walk(func(p netip.Prefix, _ int) bool {
		got = append(got, p)
		return true
	})
	if len(got) != len(ins) {
		t.Fatalf("Walk visited %d prefixes", len(got))
	}
	want := []string{"10.0.0.0/8", "10.128.0.0/9", "192.168.1.0/24", "2001:db8::/32"}
	for i, w := range want {
		if got[i] != mustPrefix(t, w) {
			t.Errorf("Walk[%d] = %v, want %s", i, got[i], w)
		}
	}
	// Early-stop walk.
	count := 0
	tr.Walk(func(netip.Prefix, int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early-stop walk visited %d", count)
	}
}

// TestRandomizedAgainstLinearScan cross-checks trie LPM against a brute-force
// reference over random insert/lookup workloads.
func TestRandomizedAgainstLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tr := New[int]()
	ref := map[netip.Prefix]int{}
	randPfx := func() netip.Prefix {
		var b [4]byte
		r.Read(b[:])
		bits := 4 + r.Intn(29) // /4 .. /32
		return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
	}
	for i := 0; i < 5000; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4: // insert
			p := randPfx()
			tr.Insert(p, i)
			ref[p] = i
		default: // lookup
			var a [4]byte
			r.Read(a[:])
			addr := netip.AddrFrom4(a)
			var bestP netip.Prefix
			bestV, found := 0, false
			for p, v := range ref {
				if p.Contains(addr) && (!found || p.Bits() > bestP.Bits()) {
					bestP, bestV, found = p, v, true
				}
			}
			gp, gv, gok := tr.Lookup(addr)
			if gok != found || (found && (gp != bestP || gv != bestV)) {
				t.Fatalf("Lookup(%v) = %v %d %v, want %v %d %v", addr, gp, gv, gok, bestP, bestV, found)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref))
		}
	}
}

func TestRandomizedIPv6(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := New[int]()
	ref := map[netip.Prefix]int{}
	for i := 0; i < 1500; i++ {
		var b [16]byte
		r.Read(b[:])
		// Cluster under 2001:db8::/32 half the time to force deep branches.
		if r.Intn(2) == 0 {
			b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
		}
		bits := 16 + r.Intn(113)
		p := netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
		tr.Insert(p, i)
		ref[p] = i
	}
	for i := 0; i < 1000; i++ {
		var a [16]byte
		r.Read(a[:])
		if r.Intn(2) == 0 {
			a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
		}
		addr := netip.AddrFrom16(a)
		var bestP netip.Prefix
		bestV, found := 0, false
		for p, v := range ref {
			if p.Contains(addr) && (!found || p.Bits() > bestP.Bits()) {
				bestP, bestV, found = p, v, true
			}
		}
		gp, gv, gok := tr.Lookup(addr)
		if gok != found || (found && (gp != bestP || gv != bestV)) {
			t.Fatalf("v6 Lookup(%v) = %v %d %v, want %v %d %v", addr, gp, gv, gok, bestP, bestV, found)
		}
	}
}

func BenchmarkTrieInsert(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pfxs := make([]netip.Prefix, 1<<16)
	for i := range pfxs {
		var buf [4]byte
		r.Read(buf[:])
		pfxs[i] = netip.PrefixFrom(netip.AddrFrom4(buf), 8+r.Intn(25)).Masked()
	}
	b.ResetTimer()
	tr := New[int]()
	for i := 0; i < b.N; i++ {
		tr.Insert(pfxs[i%len(pfxs)], i)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New[int]()
	for i := 0; i < 1<<16; i++ {
		var buf [4]byte
		r.Read(buf[:])
		tr.Insert(netip.PrefixFrom(netip.AddrFrom4(buf), 8+r.Intn(25)).Masked(), i)
	}
	addrs := make([]netip.Addr, 1<<12)
	for i := range addrs {
		var buf [4]byte
		r.Read(buf[:])
		addrs[i] = netip.AddrFrom4(buf)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}
