package ipfix

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"ipd/internal/flow"
)

// outcome is everything a run of HandleMessage calls may change: the records
// sunk, every stats counter, and the health observer's calls.
type outcome struct {
	Recs                                                                           []flow.Record
	Messages, Records, Malformed, UnknownExporter, UnknownTemplate, SkippedRecords uint64
	Health                                                                         []healthCall
}

type healthCall struct {
	Router                                 flow.RouterID
	Domain, Seq                            uint32
	DataRecords, TemplateRecords, Unknowns int
	Export                                 time.Time
}

type recordingHealth struct{ calls []healthCall }

func (h *recordingHealth) ObserveIPFIX(router flow.RouterID, domain, seq uint32, dataRecords, templateRecords, unknownSets int, export time.Time) {
	h.calls = append(h.calls, healthCall{router, domain, seq, dataRecords, templateRecords, unknownSets, export})
}

var diffSrc = netip.MustParseAddr("192.0.2.9")

const diffRouter = 5

// handled runs the messages, in order, through one fresh collector.
func handled(t testing.TB, msgs ...[]byte) outcome {
	var out outcome
	c, err := NewCollector(func(r flow.Record) { out.Recs = append(out.Recs, r) })
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterExporter(diffSrc, diffRouter)
	h := &recordingHealth{}
	c.SetHealth(h)
	for _, m := range msgs {
		c.HandleMessage(m, diffSrc)
	}
	st := c.Stats()
	if st.Panics.Load() != 0 {
		t.Fatalf("HandleMessage panicked on %x", msgs)
	}
	out.Messages, out.Records, out.Malformed = st.Messages.Load(), st.Records.Load(), st.Malformed.Load()
	out.UnknownExporter, out.UnknownTemplate = st.UnknownExporter.Load(), st.UnknownTemplate.Load()
	out.SkippedRecords = st.SkippedRecords.Load()
	out.Health = h.calls
	return out
}

// reference is the allocating formulation the collector used to run:
// DecodeMessage, all of the message's templates into the Cache, then
// DecodeRecords data set by data set.
func reference(msgs ...[]byte) outcome {
	var out outcome
	cache := NewCache()
	for _, b := range msgs {
		msg, err := DecodeMessage(b)
		if err != nil {
			out.Malformed++
			continue
		}
		cache.Add(msg.DomainID, msg.Templates)
		out.Messages++
		call := healthCall{Router: diffRouter, Domain: msg.DomainID, Seq: msg.Sequence,
			TemplateRecords: len(msg.Templates), Export: msg.ExportTime}
		for _, ds := range msg.DataSets {
			tmpl, ok := cache.Lookup(msg.DomainID, ds.TemplateID)
			if !ok {
				out.UnknownTemplate++
				call.Unknowns++
				continue
			}
			recs, skipped, err := DecodeRecords(msg, tmpl, ds, diffRouter)
			if err != nil {
				out.Malformed++
				continue
			}
			out.SkippedRecords += uint64(skipped)
			call.DataRecords += len(recs) + skipped
			out.Recs = append(out.Recs, recs...)
			out.Records += uint64(len(recs))
		}
		out.Health = append(out.Health, call)
	}
	return out
}

// rawSet frames one set; pad zero bytes follow the body inside the set.
func rawSet(id uint16, body []byte, pad int) []byte {
	out := binary.BigEndian.AppendUint16(nil, id)
	out = binary.BigEndian.AppendUint16(out, uint16(SetHeaderLen+len(body)+pad))
	return append(append(out, body...), make([]byte, pad)...)
}

// rawMessage frames sets under a domain-1 header.
func rawMessage(seq uint32, sets ...[]byte) []byte {
	var body []byte
	for _, s := range sets {
		body = append(body, s...)
	}
	out := binary.BigEndian.AppendUint16(nil, Version)
	out = binary.BigEndian.AppendUint16(out, uint16(MessageHeaderLen+len(body)))
	out = binary.BigEndian.AppendUint32(out, exportTime)
	out = binary.BigEndian.AppendUint32(out, seq)
	out = binary.BigEndian.AppendUint32(out, 1)
	return append(out, body...)
}

func templateSet(ts ...Template) []byte {
	var body []byte
	for _, t := range ts {
		body = binary.BigEndian.AppendUint16(body, t.ID)
		body = binary.BigEndian.AppendUint16(body, uint16(len(t.Fields)))
		for _, f := range t.Fields {
			body = binary.BigEndian.AppendUint16(body, f.ID)
			body = binary.BigEndian.AppendUint16(body, f.Length)
		}
	}
	return rawSet(TemplateSetID, body, 0)
}

func dataSet(t testing.TB, tmpl Template, pad int, recs ...flow.Record) []byte {
	var body []byte
	for _, r := range recs {
		enc, err := encodeRecord(tmpl, r)
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, enc...)
	}
	return rawSet(tmpl.ID, body, pad)
}

// noSrcTemplate describes records without a source address: every one of
// them is skipped.
var noSrcTemplate = Template{ID: 300, Fields: []FieldSpec{
	{ID: IEDestinationIPv4Address, Length: 4},
	{ID: IEOctetDeltaCount, Length: 4},
}}

// TestHandleMatchesDecode pins the in-place collector path to the
// DecodeMessage+Cache+DecodeRecords formulation on the cases the rewrite
// could get wrong.
func TestHandleMatchesDecode(t *testing.T) {
	templates := rawMessage(0, templateSet(DefaultTemplateV4, DefaultTemplateV6, noSrcTemplate))
	v4 := dataSet(t, DefaultTemplateV4, 0, v4Record(1), v4Record(2))
	v6 := dataSet(t, DefaultTemplateV6, 0, v6Record(1))
	cases := []struct {
		name string
		msgs [][]byte
		sunk int
	}{
		{"templates then v4 and v6 data", [][]byte{templates, rawMessage(0, v4, v6)}, 3},
		{"data only, template unknown", [][]byte{rawMessage(0, v4)}, 0},
		{"data set precedes its template inside one message",
			[][]byte{rawMessage(0, v4, templateSet(DefaultTemplateV4))}, 2},
		{"three padding bytes tolerated",
			[][]byte{templates, rawMessage(0, dataSet(t, DefaultTemplateV4, 3, v4Record(1)))}, 1},
		{"four trailing bytes sink nothing from that set, the next set still decodes",
			[][]byte{templates, rawMessage(0, dataSet(t, DefaultTemplateV4, 4, v4Record(1), v4Record(2)), v6)}, 1},
		{"records without a source are skipped, not sunk",
			[][]byte{templates, rawMessage(0, dataSet(t, noSrcTemplate, 0, v4Record(1), v4Record(2)))}, 0},
		{"withdrawn template is unknown afterwards",
			[][]byte{templates, rawMessage(0, templateSet(Template{ID: DefaultTemplateV4.ID})), rawMessage(0, v4)}, 0},
		{"malformed later set sinks nothing from the sets before it",
			[][]byte{templates, rawMessage(0, v4, v6[:len(v6)-1])}, 0},
		{"reserved set id rejects the message",
			[][]byte{templates, rawMessage(0, v4, rawSet(7, nil, 0))}, 0},
		{"bad template in a later set keeps the earlier data out",
			[][]byte{templates, rawMessage(0, v4, rawSet(TemplateSetID, []byte{0, 9, 0, 0}, 0))}, 0},
		{"options template set skipped",
			[][]byte{templates, rawMessage(0, rawSet(OptionsTemplateSetID, []byte{1, 2, 3, 4}, 0), v4)}, 2},
		{"truncated header", [][]byte{templates[:MessageHeaderLen-1]}, 0},
	}
	for _, tc := range cases {
		got, want := handled(t, tc.msgs...), reference(tc.msgs...)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
		if len(got.Recs) != tc.sunk {
			t.Errorf("%s: sunk %d records, want %d", tc.name, len(got.Recs), tc.sunk)
		}
	}
}

// FuzzIPFIXHandleDifferential: for two arbitrary messages in sequence (the
// first usually plants templates for the second) the collector sinks the
// records, moves every counter and calls the health observer exactly as
// DecodeMessage+Cache+DecodeRecords say it should.
func FuzzIPFIXHandleDifferential(f *testing.F) {
	f.Add(rawMessage(0, templateSet(DefaultTemplateV4)), rawMessage(0, dataSet(f, DefaultTemplateV4, 0, v4Record(1))))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		if got, want := handled(t, first, second), reference(first, second); !reflect.DeepEqual(got, want) {
			t.Fatalf("first=%x second=%x:\n got %+v\nwant %+v", first, second, got, want)
		}
	})
}
