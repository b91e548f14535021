package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/netip"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/netaddr"
)

// fuzzMaxOps bounds one input's op sequence: the journal replay check is
// linear in the events so far and runs after every op.
const fuzzMaxOps = 48

// opReader hands out the fuzz input byte by byte; an exhausted input reads
// as zeros.
type opReader struct{ data []byte }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// fuzzConfig decodes the first input byte into a small engine configuration:
// low n_cidr factors so a few dozen records split and classify, and
// optionally a range cap with a governor and the sketch tier.
func fuzzConfig(t *testing.T, b byte) Config {
	cfg := testConfig()
	cfg.NCidrFactor4 = []float64{0.0002, 0.001}[b&1]
	if b&2 != 0 {
		cfg.CIDRMax4, cfg.CIDRMax6 = 24, 40
	}
	cfg.MaxRanges = []int{0, 6, 12, 0}[b>>2&3]
	if b&16 != 0 {
		cfg.MaxIPStates = 40
		cfg.Sketch = true
		g, err := governor.New(governor.Config{MaxRanges: cfg.MaxRanges, MaxIPStates: cfg.MaxIPStates, SketchTier: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Governor = g
	}
	return cfg
}

// lastAddr returns the last address p covers, on netip bytes (independent of
// the integer forms under test).
func lastAddr(p netip.Prefix) netip.Addr {
	b := p.Addr().AsSlice()
	for i := p.Bits(); i < len(b)*8; i++ {
		b[i/8] |= 1 << (7 - i%8)
	}
	a, _ := netip.AddrFromSlice(b)
	return a
}

// checkEngineInvariants asserts what must hold between any two engine
// operations; probes are extra addresses to cross-check the lookup on. A
// journal-replayed engine is exempt from the counter identity: replay
// rebuilds counters approximately, from the decision events' reasons.
func checkEngineInvariants(t *testing.T, e *Engine, replayed bool, probes []netip.Addr) {
	t.Helper()
	ix := e.idx
	if ix.holes != 0 || len(ix.k4)+len(ix.k6) != len(ix.all) {
		t.Fatalf("index out of step: holes=%d keys=%d+%d ranges=%d", ix.holes, len(ix.k4), len(ix.k6), len(ix.all))
	}
	ipCount := 0
	// Exact tiling: a family's first start is the zero address, every range
	// starts one past its predecessor's last address, the last one ends at
	// the all-ones address (so the address after it is invalid).
	want := netip.IPv4Unspecified()
	for i, rs := range ix.all {
		if rs.prefix != rs.prefix.Masked() || rs.key != netaddr.KeyOf(rs.prefix) {
			t.Fatalf("range %v: unmasked prefix or stale key %v", rs.prefix, rs.key)
		}
		if i == len(ix.k4) {
			if want.IsValid() {
				t.Fatalf("IPv4 ends before %v", want)
			}
			want = netip.IPv6Unspecified()
		}
		if rs.prefix.Addr() != want {
			t.Fatalf("slot %d: range %v starts at %v, want %v (gap or overlap)", i, rs.prefix, rs.prefix.Addr(), want)
		}
		want = lastAddr(rs.prefix).Next()
		// Dense keys mirror the ranges and ascend strictly.
		if j := i - len(ix.k4); j < 0 {
			if ix.k4[i] != rs.key.V4() || (i > 0 && ix.k4[i-1] >= ix.k4[i]) {
				t.Fatalf("k4[%d] = %#x out of step with %v", i, ix.k4[i], rs.prefix)
			}
		} else {
			hi, lo := rs.key.Words()
			if ix.k6[j] != (u128{hi, lo}) || (j > 0 && !ix.k6[j-1].less(ix.k6[j])) {
				t.Fatalf("k6[%d] = %#x out of step with %v", j, ix.k6[j], rs.prefix)
			}
		}
		// Range bookkeeping.
		ipCount += len(rs.ips)
		checkTally(t, rs.prefix, rs.counters, rs.total, replayed)
		for k, st := range rs.ips {
			checkTally(t, k.Prefix(), st.counters, st.total, false)
		}
		if rs.sketched && rs.ips != nil {
			t.Fatalf("range %v is sketched but holds per-IP state", rs.prefix)
		}
		probes = append(probes, rs.prefix.Addr(), lastAddr(rs.prefix))
	}
	if want.IsValid() || len(ix.k6) == 0 {
		t.Fatalf("IPv6 ends before %v", want)
	}
	if ipCount != e.ipCount {
		t.Fatalf("ipCount = %d, ranges hold %d per-IP entries", e.ipCount, ipCount)
	}
	// The predecessor search agrees with a linear scan, and the verdict
	// table answers for exactly the classified ranges.
	table := e.LookupTable()
	for _, a := range probes {
		var hit *rangeState
		for _, rs := range ix.all {
			if rs.prefix.Contains(a) {
				if hit != nil {
					t.Fatalf("%v is in both %v and %v", a, hit.prefix, rs.prefix)
				}
				hit = rs
			}
		}
		if got := rangeAt(e, a); got != hit {
			t.Fatalf("lookup(%v) = %v, linear scan found %v", a, got.prefix, hit.prefix)
		}
		p, in, ok := table.Lookup(a)
		if ok != hit.classified || ok && (p != hit.prefix || in != hit.ingress) {
			t.Fatalf("LookupTable().Lookup(%v) = %v %v %t, covering range %v classified=%t %v",
				a, p, in, ok, hit.prefix, hit.classified, hit.ingress)
		}
	}
}

// checkTally asserts a tally's own invariants: strictly ascending by (router,
// iface), nothing at or below the float dust sub removes, and — unless the
// state was rebuilt approximately — summing to the total kept beside it.
func checkTally(t *testing.T, of netip.Prefix, v votes, total float64, approximate bool) {
	t.Helper()
	sum := 0.0
	for i, x := range v {
		if i > 0 && !lessIngress(v[i-1].in, x.in) {
			t.Fatalf("%v: tally %v is not strictly ascending at %d", of, v, i)
		}
		if x.n <= 1e-9 {
			t.Fatalf("%v: tally %v keeps a dust entry at %d", of, v, i)
		}
		sum += x.n
	}
	if !approximate && math.Abs(total-sum) > 1e-6*math.Max(1, total) {
		t.Fatalf("%v: total %v != tally sum %v", of, total, sum)
	}
}

// checkRestoreAndReplay asserts that the engine's checkpoint restores into a
// fresh engine that re-encodes to the same bytes, and that a fresh engine
// fed the journal so far ends at the same partition. It returns the restored
// engine.
func checkRestoreAndReplay(t *testing.T, e *Engine, cfg Config, journal *[]Event) *Engine {
	t.Helper()
	state := e.MarshalState()
	events := *journal
	restored, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	*journal = events // drop the fresh engine's two root events again
	if err := restored.UnmarshalState(state); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if again := restored.MarshalState(); !bytes.Equal(state, again) {
		t.Fatalf("restore then re-encode changed the checkpoint (%d vs %d bytes)", len(state), len(again))
	}
	cfg.OnEvent, cfg.Governor = nil, nil
	replayed, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := replayed.ApplyEvent(ev); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	checkEngineInvariants(t, replayed, true, nil)
	if err := DiffPartitions(e.Snapshot(), replayed.Snapshot()); err != nil {
		t.Fatalf("replayed partition diverged: %v", err)
	}
	return restored
}

// FuzzEngineOps drives the engine with a decoded operation sequence —
// observe bursts (IPv4 and IPv6, clustered and scattered sources, a few
// ingresses), clock advances, forced cycles, checkpoint/restore hand-overs —
// and checks the partition, bookkeeping, checkpoint and journal invariants
// after every operation.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x00\x00\x05\x40\x00\x00\x45\x40\x01\x04\x03\x04\x03\x05"))
	f.Add([]byte("\x05\x02\x01\x3f\x00\x02\x41\x3f\x01\x04\x03\x06\x04\x03\x04\x07\x05"))
	f.Add([]byte("\x19\x01\x10\x20\x30\x40\x3f\x01\x01\x50\x60\x70\x80\x3f\x00\x04\x03\x04\x03\x06\x04\x03"))
	f.Add([]byte("\x12\x03\xde\xad\xbe\xef\x00\x00\x00\x01\x20\x02\x00\x02\x20\x00\x04\x07\x04\x07\x04\x07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		cfg := fuzzConfig(t, r.byte())
		var journal []Event
		cfg.OnEvent = func(ev Event) { journal = append(journal, ev) }
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ingresses := []flow.Ingress{inA, inB, inC}
		now := base
		for op := 0; op < fuzzMaxOps && len(r.data) > 0; op++ {
			var probes []netip.Addr
			switch code := r.byte() % 8; code {
			case 0, 1, 2, 3:
				// Observe a burst of n records from consecutive sources.
				var src [16]byte
				switch code {
				case 0: // clustered IPv4: a handful of /24s inside 10.0.0.0/14
					a := r.byte()
					src = [16]byte{10, a & 3, a >> 2 & 3, r.byte()}
				case 1: // scattered IPv4
					src = [16]byte{r.byte(), r.byte(), r.byte(), r.byte()}
				case 2: // clustered IPv6: a handful of /48s inside 2001:db8::/32
					a := r.byte()
					src = [16]byte{0x20, 0x01, 0x0d, 0xb8, 0, a & 3, 15: r.byte()}
				case 3: // scattered IPv6
					for i := 0; i < 8; i++ {
						src[i] = r.byte()
					}
				}
				in, n := ingresses[int(r.byte())%len(ingresses)], int(r.byte()%64)+1
				for i := 0; i < n; i++ {
					addr := netip.AddrFrom16(src)
					if code < 2 {
						addr = netip.AddrFrom4([4]byte(src[:4]))
					}
					e.Observe(flow.Record{Ts: now, Src: addr, In: in, Bytes: 100, Packets: 1})
					probes = append(probes, addr)
					// Step by one masked source (/28 at the default cidr_max).
					if code < 2 {
						binary.BigEndian.PutUint32(src[:4], binary.BigEndian.Uint32(src[:4])+16)
					} else {
						binary.BigEndian.PutUint64(src[:8], binary.BigEndian.Uint64(src[:8])+1<<16)
					}
				}
			case 4:
				now = now.Add(time.Duration(r.byte()%8+1) * 20 * time.Second)
				e.AdvanceTo(now)
			case 5:
				e.ForceCycle()
			case 6, 7:
				// Hand over to the restored engine: whatever a restore gets
				// wrong shows up in the operations that follow.
				e = checkRestoreAndReplay(t, e, cfg, &journal)
			}
			checkEngineInvariants(t, e, false, probes)
			checkRestoreAndReplay(t, e, cfg, &journal)
		}
	})
}
