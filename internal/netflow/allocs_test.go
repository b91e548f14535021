package netflow

import (
	"testing"

	"ipd/internal/flow"
)

var allocSink flow.Record

// TestHandleDatagramAllocs guards the in-place decode: a full datagram goes
// from wire bytes to thirty sunk records without allocating.
func TestHandleDatagramAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	c, err := NewCollector(func(r flow.Record) { allocSink = r })
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterExporter(diffSrc.Addr(), diffRouter)
	dg := v5Datagram(t, MaxRecords)
	if allocs := testing.AllocsPerRun(100, func() { c.HandleDatagram(dg, diffSrc) }); allocs != 0 {
		t.Fatalf("HandleDatagram allocates %v per datagram, want 0", allocs)
	}
	if got := c.Stats().Records.Load(); got != 101*MaxRecords {
		t.Fatalf("sunk %d records, want %d", got, 101*MaxRecords)
	}
}
