package netflow

import (
	"encoding/binary"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"ipd/internal/flow"
)

// outcome is everything one HandleDatagram call may change: the records
// sunk, the stats deltas, and the health observer's call.
type outcome struct {
	Recs                                   []flow.Record
	Datagrams, Records, Malformed, Unknown uint64
	Health                                 []healthCall
}

type healthCall struct {
	Router   flow.RouterID
	Seq      uint32
	Records  int
	Export   time.Time
	Sampling uint16
}

type recordingHealth struct{ calls []healthCall }

func (h *recordingHealth) ObserveNetFlow(router flow.RouterID, seq uint32, records int, export time.Time, sampling uint16) {
	h.calls = append(h.calls, healthCall{router, seq, records, export, sampling})
}

var diffSrc = netip.MustParseAddrPort("192.0.2.1:2055")

const diffRouter = 7

// handled runs data through a fresh collector; known registers the sender.
func handled(t testing.TB, data []byte, known bool) outcome {
	var out outcome
	c, err := NewCollector(func(r flow.Record) { out.Recs = append(out.Recs, r) })
	if err != nil {
		t.Fatal(err)
	}
	if known {
		c.RegisterExporter(diffSrc.Addr(), diffRouter)
	}
	h := &recordingHealth{}
	c.SetHealth(h)
	c.HandleDatagram(data, diffSrc)
	st := c.Stats()
	if st.Panics.Load() != 0 {
		t.Fatalf("HandleDatagram panicked on %x", data)
	}
	out.Datagrams, out.Records = st.Datagrams.Load(), st.Records.Load()
	out.Malformed, out.Unknown = st.Malformed.Load(), st.UnknownExporter.Load()
	out.Health = h.calls
	return out
}

// reference is the allocating formulation the collector used to run: Decode
// the whole datagram, then ToFlow record by record.
func reference(data []byte, known bool) outcome {
	var out outcome
	d, err := Decode(data)
	switch {
	case err != nil:
		out.Malformed = 1
	case !known:
		out.Unknown = 1
	default:
		out.Datagrams, out.Records = 1, uint64(len(d.Records))
		out.Health = []healthCall{{diffRouter, d.Header.FlowSequence, len(d.Records), d.Header.ExportTime(), d.Header.SamplingInterval}}
		for _, r := range d.Records {
			out.Recs = append(out.Recs, ToFlow(d.Header, r, diffRouter))
		}
	}
	return out
}

// v5Datagram encodes n distinct records under the sample header.
func v5Datagram(t testing.TB, n int) []byte {
	d := Datagram{Header: sampleHeader()}
	for i := 0; i < n; i++ {
		r := sampleRecord()
		r.SrcAddr = netip.AddrFrom4([4]byte{203, 0, byte(i), 9})
		r.Input = uint16(i)
		r.Octets += uint32(i)
		d.Records = append(d.Records, r)
	}
	b, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func withCount(b []byte, count uint16) []byte {
	b = append([]byte(nil), b...)
	binary.BigEndian.PutUint16(b[2:], count)
	return b
}

// TestHandleMatchesDecode pins the in-place collector path to Decode+ToFlow
// on the framing cases that matter: nothing is sunk from a malformed
// datagram, and bytes past the announced records are ignored.
func TestHandleMatchesDecode(t *testing.T) {
	one, full := v5Datagram(t, 1), v5Datagram(t, MaxRecords)
	cases := []struct {
		name string
		data []byte
		sunk int
	}{
		{"one record", one, 1},
		{"thirty records", full, MaxRecords},
		{"trailing bytes ignored", append(append([]byte(nil), one...), 1, 2, 3), 1},
		{"count below payload", withCount(full, 2), 2},
		{"empty", nil, 0},
		{"short header", one[:HeaderLen-1], 0},
		{"header only", one[:HeaderLen], 0},
		{"last record cut", full[:len(full)-1], 0},
		{"count above payload", withCount(one, 2), 0},
		{"count zero", withCount(one, 0), 0},
		{"count 31", withCount(append(full, make([]byte, RecordLen)...), MaxRecords+1), 0},
		{"version 9", append([]byte{0, 9}, one[2:]...), 0},
	}
	for _, tc := range cases {
		for _, known := range []bool{true, false} {
			got, want := handled(t, tc.data, known), reference(tc.data, known)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (known=%v):\n got %+v\nwant %+v", tc.name, known, got, want)
			}
			if known && len(got.Recs) != tc.sunk {
				t.Errorf("%s: sunk %d records, want %d", tc.name, len(got.Recs), tc.sunk)
			}
		}
	}
}

// FuzzV5HandleDifferential: for arbitrary bytes the collector sinks the
// records, moves the counters and calls the health observer exactly as
// Decode+ToFlow say it should.
func FuzzV5HandleDifferential(f *testing.F) {
	f.Add(v5Datagram(f, 1), true)
	f.Add(v5Datagram(f, 2), false)
	f.Fuzz(func(t *testing.T, data []byte, known bool) {
		if got, want := handled(t, data, known), reference(data, known); !reflect.DeepEqual(got, want) {
			t.Fatalf("known=%v data=%x:\n got %+v\nwant %+v", known, data, got, want)
		}
	})
}
