package core

import (
	"context"
	"encoding/binary"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/stattime"
)

// chaosRand is a deterministic xorshift64* stream for adversarial source
// generation (tests must not use the global math/rand state).
type chaosRand uint64

func (r *chaosRand) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = chaosRand(x)
	return x * 0x2545f4914f6cdd1d
}

// chaosSrc derives a pseudorandom scan source: even draws are IPv4 /32
// hosts scattered over the whole space, odd draws are IPv6 sources in
// distinct /64s under 2001::/16 — both families well below cidr_max, the
// worst case for per-IP state and split pressure.
func chaosSrc(r *chaosRand) netip.Addr {
	v := r.next()
	if v&1 == 0 {
		return netip.AddrFrom4([4]byte{byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32)})
	}
	var a [16]byte
	a[0], a[1] = 0x20, 0x01
	binary.BigEndian.PutUint64(a[2:10], v)
	return netip.AddrFrom16(a)
}

// chaosIngress spreads the scan over four ingresses so no range on the
// traffic path ever reaches the q threshold: every range stays mixed and
// wants to split, forever.
func chaosIngress(v uint64) flow.Ingress {
	return []flow.Ingress{inA, inB, inC, inD}[(v>>3)%4]
}

// TestScanTrafficMixedFamilyRangeCap is the adversarial-growth chaos test:
// pseudorandom spoofed-source scan traffic over both address families
// (random /32s and /64s) drives maximal split pressure against a small
// MaxRanges budget. The active-range count must respect the cap after
// every cycle, the governor must leave the normal state, and the refused
// splits must be accounted.
func TestScanTrafficMixedFamilyRangeCap(t *testing.T) {
	const maxRanges = 24
	g, err := governor.New(governor.Config{MaxRanges: maxRanges})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.MaxRanges = maxRanges
	cfg.Governor = g
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := chaosRand(42)
	for c := 0; c < 10; c++ {
		ts := base.Add(time.Duration(c) * time.Minute)
		for i := 0; i < 600; i++ {
			src := chaosSrc(&rng)
			e.Observe(flow.Record{Ts: ts, Src: src, In: chaosIngress(uint64(rng)), Bytes: 64, Packets: 1})
		}
		e.AdvanceTo(base.Add(time.Duration(c+1) * time.Minute))
		if got := e.RangeCount(); got > maxRanges {
			t.Fatalf("cycle %d: RangeCount = %d, exceeds MaxRanges %d", c+1, got, maxRanges)
		}
	}
	if e.tel.splitsDeferred.Value() == 0 {
		t.Error("no splits deferred; scan traffic too weak to exercise the cap")
	}
	if g.State() == governor.StateNormal && g.Transitions(governor.StateDegraded) == 0 {
		t.Error("governor never left normal under saturating scan traffic")
	}
}

// TestServerSnapshotsDuringEmergencyCompaction is the concurrency chaos
// test (run it with -race): a Server ingests scan traffic that drives the
// governor into emergency — so stage-2 cycles run forced compaction and
// mutate the partition aggressively — while reader goroutines continuously
// take snapshots, range lookups, and governor snapshots.
func TestServerSnapshotsDuringEmergencyCompaction(t *testing.T) {
	g, err := governor.New(governor.Config{MaxIPStates: 100})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Governor = g
	s, err := NewServer(cfg, stattime.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	q := NewIngestQueue(8 * 300)
	runDone := make(chan error, 1)
	go func() { runDone <- s.RunQueue(context.Background(), q) }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			probe := netip.MustParseAddr("10.0.0.1")
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r % 4 {
				case 0:
					s.Snapshot()
				case 1:
					s.Mapped()
				case 2:
					s.Range(probe)
				case 3:
					g.Snapshot()
					g.State()
				}
			}
		}(r)
	}

	// Eight minutes of mixed-ingress traffic minting one per-IP entry per
	// /28 block, 300 fresh blocks per minute against a 100-entry budget:
	// utilization crosses the emergency threshold within two cycles and
	// stays there, so compaction runs repeatedly while the readers hammer
	// the snapshot surface.
	rng := chaosRand(7)
	for m := 0; m < 8; m++ {
		ts := base.Add(time.Duration(m) * time.Minute)
		for i := 0; i < 300; i++ {
			a4 := [4]byte{10, byte(m), byte(i / 16), byte(i % 16 * 16)}
			q.Offer(flow.Record{Ts: ts, Src: netip.AddrFrom4(a4), In: chaosIngress(rng.next()), Bytes: 64, Packets: 1})
		}
	}
	q.Close()
	if err := <-runDone; err != nil {
		t.Fatalf("RunQueue: %v", err)
	}
	if q.Shed() != 0 {
		t.Fatalf("queue shed %d records", q.Shed())
	}
	close(stop)
	wg.Wait()

	if g.Transitions(governor.StateEmergency) == 0 {
		t.Error("governor never reached emergency; compaction path not exercised")
	}
	if s.eng.tel.rangesCompacted.Value() == 0 {
		t.Error("no sibling pairs compacted during emergency")
	}
}
