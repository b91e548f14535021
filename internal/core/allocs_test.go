package core

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"ipd/internal/flow"
)

// allocBatch is 512 records at ts, sources stepping one masked source (/28)
// from 10.0.0.0, every 64th from inB, the rest from inA.
func allocBatch(ts time.Time) []flow.Record {
	recs := make([]flow.Record, 512)
	for i := range recs {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], 10<<24|uint32(i)<<4)
		in := inA
		if i%64 == 0 {
			in = inB
		}
		recs[i] = flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: in, Bytes: 100, Packets: 1}
	}
	return recs
}

// TestObserveBatchAllocs guards stage 1's steady state: votes into classified
// ranges and into already-minted sources allocate nothing, and minting a
// source is exactly one allocation (the ipState with its inline tally).
func TestObserveBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	e, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs := allocBatch(base)

	// Unclassified root: the first batch mints the 512 sources and both
	// ingress entries; from then on the same sources only bump counters.
	e.ObserveBatch(recs)
	if rs := rangeAt(e, recs[0].Src); rs.classified || len(rs.ips) != len(recs) {
		t.Fatalf("setup: root classified=%v with %d sources, want unclassified with %d", rs.classified, len(rs.ips), len(recs))
	}
	if allocs := testing.AllocsPerRun(20, func() { e.ObserveBatch(recs) }); allocs != 0 {
		t.Errorf("ObserveBatch into minted sources allocates %v per batch, want 0", allocs)
	}

	// One new source per run: one allocation (averaged over the runs, which
	// absorbs the per-IP map's occasional growth).
	next := uint32(11 << 24)
	one := make([]flow.Record, 1)
	if allocs := testing.AllocsPerRun(200, func() {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], next)
		next += 16
		one[0] = flow.Record{Ts: base, Src: netip.AddrFrom4(a), In: inA, Bytes: 100, Packets: 1}
		e.ObserveBatch(one)
	}); allocs != 1 {
		t.Errorf("minting a source allocates %v, want exactly 1", allocs)
	}

	// Classified: 63 of 64 votes agree, so the cycle classifies the root to inA.
	e.AdvanceTo(base.Add(time.Minute))
	if rs := rangeAt(e, recs[0].Src); !rs.classified || rs.ingress != inA {
		t.Fatalf("setup: root not classified to %v", inA)
	}
	recs = allocBatch(base.Add(time.Minute))
	if allocs := testing.AllocsPerRun(20, func() { e.ObserveBatch(recs) }); allocs != 0 {
		t.Errorf("ObserveBatch into classified ranges allocates %v per batch, want 0", allocs)
	}
}
