package netaddr

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

func TestInsertGet(t *testing.T) {
	tr := NewTable([]Entry[string]{
		{mustPrefix(t, "10.0.0.0/8"), "a"},
		{mustPrefix(t, "10.1.0.0/16"), "b"},
		{mustPrefix(t, "10.1.2.0/24"), "c"},
		{mustPrefix(t, "192.168.0.0/16"), "d"},
	})
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
	p := mustPrefix(t, "10.0.0.0/8")
	tr := NewTable([]Entry[int]{{p, 1}, {p, 2}})
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	if v, _ := tr.Get(p); v != 2 {
		t.Fatalf("Get = %d, want 2", v)
	}
}

func TestNewTablePanicsOnInvalidPrefix(t *testing.T) {
	for _, p := range []netip.Prefix{{}, netip.PrefixFrom(netip.MustParseAddr("::ffff:10.0.0.0"), 104)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable(%v) did not panic", p)
				}
			}()
			NewTable([]Entry[int]{{p, 1}})
		}()
	}
}

func TestLookupLPM(t *testing.T) {
	tr := NewTable([]Entry[string]{
		{mustPrefix(t, "0.0.0.0/0"), "default"},
		{mustPrefix(t, "10.0.0.0/8"), "ten"},
		{mustPrefix(t, "10.1.0.0/16"), "ten-one"},
		{mustPrefix(t, "10.1.2.240/28"), "deep"},
	})

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
	tr := NewTable([]Entry[string]{{mustPrefix(t, "10.0.0.0/8"), "ten"}})
	if _, _, ok := tr.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("Lookup outside all entries should miss")
	}
	if _, _, ok := tr.Lookup(netip.Addr{}); ok {
		t.Error("Lookup of invalid addr should miss")
	}
}

func TestFamiliesIndependent(t *testing.T) {
	tr := NewTable([]Entry[string]{
		{mustPrefix(t, "0.0.0.0/0"), "v4"},
		{mustPrefix(t, "2001:db8::/32"), "v6"},
	})
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
	tr := NewTable([]Entry[string]{{mustPrefix(t, "192.0.2.0/24"), "doc"}})
	mapped := netip.AddrFrom16(netip.MustParseAddr("::ffff:192.0.2.77").As16())
	if _, v, ok := tr.Lookup(mapped); !ok || v != "doc" {
		t.Errorf("4-in-6 lookup = %q ok=%v, want doc", v, ok)
	}
}

func TestLookupPrefix(t *testing.T) {
	tr := NewTable([]Entry[string]{
		{mustPrefix(t, "10.0.0.0/8"), "a"},
		{mustPrefix(t, "10.1.0.0/16"), "b"},
	})
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
	// Given out of order: the walk is in address order regardless.
	ins := []string{"2001:db8::/32", "192.168.1.0/24", "10.128.0.0/9", "10.0.0.0/8"}
	var ents []Entry[int]
	for i, s := range ins {
		ents = append(ents, Entry[int]{mustPrefix(t, s), i})
	}
	tr := NewTable(ents)
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

// linearLPM is the reference every table read is checked against: the
// longest prefix in ref that covers reports true for, found by scanning them
// all.
func linearLPM(ref map[netip.Prefix]int, covers func(netip.Prefix) bool) (best netip.Prefix, v int, found bool) {
	for p, pv := range ref {
		if covers(p) && (!found || p.Bits() > best.Bits()) {
			best, v, found = p, pv, true
		}
	}
	return best, v, found
}

// checkAddr compares Lookup(addr) with the linear scan.
func checkAddr(t *testing.T, tr *Table[int], ref map[netip.Prefix]int, addr netip.Addr) {
	t.Helper()
	bestP, bestV, found := linearLPM(ref, func(p netip.Prefix) bool { return p.Contains(addr.Unmap()) })
	gp, gv, gok := tr.Lookup(addr)
	if gok != found || (found && (gp != bestP || gv != bestV)) {
		t.Fatalf("Lookup(%v) = %v %d %v, want %v %d %v", addr, gp, gv, gok, bestP, bestV, found)
	}
}

// TestRandomizedAgainstLinearScan cross-checks table LPM against a
// brute-force reference over random prefix sets, duplicates included.
func TestRandomizedAgainstLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	randPfx := func() netip.Prefix {
		var b [4]byte
		r.Read(b[:])
		bits := 4 + r.Intn(29) // /4 .. /32
		return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
	}
	for round := 0; round < 20; round++ {
		var ents []Entry[int]
		ref := map[netip.Prefix]int{}
		for i := 0; i < 25*round; i++ {
			p := randPfx()
			if i > 0 && r.Intn(8) == 0 {
				p = ents[r.Intn(len(ents))].Prefix // a later duplicate wins
			}
			ents = append(ents, Entry[int]{p, i})
			ref[p] = i
		}
		tr := NewTable(ents)
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref))
		}
		for i := 0; i < 250; i++ {
			var a [4]byte
			r.Read(a[:])
			checkAddr(t, tr, ref, netip.AddrFrom4(a))
		}
	}
}

func TestRandomizedIPv6(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var ents []Entry[int]
	ref := map[netip.Prefix]int{}
	for i := 0; i < 1500; i++ {
		var b [16]byte
		r.Read(b[:])
		// Cluster under 2001:db8::/32 half the time to force deep nesting.
		if r.Intn(2) == 0 {
			b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
		}
		bits := 16 + r.Intn(113)
		p := netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
		ents = append(ents, Entry[int]{p, i})
		ref[p] = i
	}
	tr := NewTable(ents)
	for i := 0; i < 1000; i++ {
		var a [16]byte
		r.Read(a[:])
		if r.Intn(2) == 0 {
			a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
		}
		checkAddr(t, tr, ref, netip.AddrFrom16(a))
	}
}

// fuzzBases are the addresses fuzzed prefixes are cut from: a few per
// family with shared high bits, so that drawn prefixes nest and repeat.
var fuzzBases = []netip.Addr{
	netip.MustParseAddr("10.0.0.0"), netip.MustParseAddr("10.128.255.1"),
	netip.MustParseAddr("192.0.2.255"), netip.MustParseAddr("255.255.255.255"),
	netip.MustParseAddr("2001:db8::"), netip.MustParseAddr("2001:db8:8000::ff"),
	netip.MustParseAddr("::"), netip.MustParseAddr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
}

// fuzzPrefix draws a prefix from two bytes: a base address with one byte
// flipped, and a length.
func fuzzPrefix(sel, bits byte) netip.Prefix {
	b := fuzzBases[sel%8].AsSlice()
	b[int(sel>>3)%len(b)] ^= sel
	a, _ := netip.AddrFromSlice(b)
	return netip.PrefixFrom(a, int(bits)%(a.BitLen()+1)).Masked()
}

// FuzzTableLPM checks all five read methods against a linear scan over a
// drawn prefix set. Each input is a sequence of three-byte ops: add a drawn
// prefix or a descendant of an earlier one (depth 0 repeats it), or query a
// drawn address (plain, 4-in-6, zoned or invalid) or prefix.
func FuzzTableLPM(f *testing.F) {
	f.Add([]byte{0, 0, 8, 1, 0, 3, 3, 9, 32, 4, 1, 5, 5, 0, 0})
	f.Add([]byte{0, 4, 48, 1, 0, 10, 0, 1, 0, 4, 4, 200, 2, 12, 130, 3, 4, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ents []Entry[int]
		var addrs []netip.Addr
		var prefixes []netip.Prefix
		for i := 0; i+2 < len(data); i += 3 {
			op, x, y := data[i], data[i+1], data[i+2]
			p := fuzzPrefix(x, y)
			switch op % 5 {
			case 0:
				ents = append(ents, Entry[int]{p, i})
			case 1:
				if len(ents) == 0 {
					continue
				}
				k := KeyOf(ents[int(x)%len(ents)].Prefix)
				for d := 0; d < int(y%6); d++ {
					lo, hi, ok := k.Children()
					if !ok {
						break
					}
					k = lo
					if y>>(2+d)&1 == 1 {
						k = hi
					}
				}
				ents = append(ents, Entry[int]{k.Prefix(), i})
			case 2:
				if op%4 == 0 {
					p = netip.PrefixFrom(netip.AddrFrom16(p.Addr().As16()), p.Bits())
				}
				prefixes = append(prefixes, p)
			case 3:
				a := p.Addr()
				switch op % 4 {
				case 0:
					a = netip.AddrFrom16(a.As16())
				case 1:
					a = a.WithZone("eth0")
				case 2:
					a = netip.Addr{}
				}
				addrs = append(addrs, a)
			case 4:
				addrs = append(addrs, p.Addr())
			}
		}
		tr := NewTable(ents)
		ref := map[netip.Prefix]int{}
		for _, e := range ents {
			ref[e.Prefix] = e.Val
		}
		// Every entry's first address, and its own prefix, are probes too.
		for p := range ref {
			addrs = append(addrs, p.Addr())
			prefixes = append(prefixes, p)
		}
		prefixes = append(prefixes, netip.Prefix{})

		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
		}
		for _, a := range addrs {
			checkAddr(t, tr, ref, a)
		}
		for _, q := range prefixes {
			qn := netip.PrefixFrom(q.Addr().Unmap(), q.Bits()).Masked()
			bestP, bestV, found := linearLPM(ref, func(p netip.Prefix) bool {
				return qn.IsValid() && p.Bits() <= qn.Bits() && p.Contains(qn.Addr())
			})
			gp, gv, gok := tr.LookupPrefix(q)
			if gok != found || (found && (gp != bestP || gv != bestV)) {
				t.Fatalf("LookupPrefix(%v) = %v %d %v, want %v %d %v", q, gp, gv, gok, bestP, bestV, found)
			}
			wantV, wantOK := ref[qn]
			if gv, gok := tr.Get(q); gok != wantOK || gv != wantV {
				t.Fatalf("Get(%v) = %d %v, want %d %v", q, gv, gok, wantV, wantOK)
			}
		}
		want := make([]netip.Prefix, 0, len(ref))
		for p := range ref {
			want = append(want, p)
		}
		slices.SortFunc(want, func(a, b netip.Prefix) int {
			if c := a.Addr().Compare(b.Addr()); c != 0 {
				return c
			}
			return a.Bits() - b.Bits()
		})
		var got []netip.Prefix
		tr.Walk(func(p netip.Prefix, v int) bool {
			if v != ref[p] {
				t.Fatalf("Walk: %v holds %d, want %d", p, v, ref[p])
			}
			got = append(got, p)
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("Walk = %v, want %v", got, want)
		}
	})
}

func BenchmarkTableBuild(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ents := make([]Entry[int], 1<<16)
	for i := range ents {
		var buf [4]byte
		r.Read(buf[:])
		ents[i] = Entry[int]{netip.PrefixFrom(netip.AddrFrom4(buf), 8+r.Intn(25)).Masked(), i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewTable(ents)
	}
}

func BenchmarkTableLookup(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ents := make([]Entry[int], 1<<16)
	for i := range ents {
		var buf [4]byte
		r.Read(buf[:])
		ents[i] = Entry[int]{netip.PrefixFrom(netip.AddrFrom4(buf), 8+r.Intn(25)).Masked(), i}
	}
	tr := NewTable(ents)
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
