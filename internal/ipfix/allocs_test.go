package ipfix

import (
	"testing"

	"ipd/internal/flow"
)

var allocSink flow.Record

// TestHandleMessageAllocs guards the in-place decode: once the template is
// cached, a data-only message goes from wire bytes to sunk records without
// allocating.
func TestHandleMessageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	c, err := NewCollector(func(r flow.Record) { allocSink = r })
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterExporter(diffSrc, diffRouter)
	c.HandleMessage(rawMessage(0, templateSet(DefaultTemplateV4, DefaultTemplateV6)), diffSrc)
	recs := make([]flow.Record, 20)
	for i := range recs {
		recs[i] = v4Record(byte(i))
	}
	data := rawMessage(0, dataSet(t, DefaultTemplateV4, 0, recs...), dataSet(t, DefaultTemplateV6, 2, v6Record(1)))
	if allocs := testing.AllocsPerRun(100, func() { c.HandleMessage(data, diffSrc) }); allocs != 0 {
		t.Fatalf("HandleMessage allocates %v per data-only message, want 0", allocs)
	}
	if got := c.Stats().Records.Load(); got != 101*21 {
		t.Fatalf("sunk %d records, want %d", got, 101*21)
	}
}
