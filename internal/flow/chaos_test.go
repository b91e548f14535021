package flow

import (
	"bytes"
	"errors"
	"io"
	"net/netip"
	"testing"
	"time"

	"ipd/internal/faultinject"
	"ipd/internal/telemetry"
)

const (
	headerSize = 8
	// v4RecordSize is the encoding of a src-only IPv4 record, what chaosTrace
	// emits: flags + ts + v4 src + router/iface + bytes/packets.
	v4RecordSize = 1 + 8 + 4 + 2 + 2 + 4 + 4
)

// chaosTrace writes n IPv4 records and returns the encoded stream plus the
// records written.
func chaosTrace(t *testing.T, n int) ([]byte, []Record) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Unix(1_600_000_000, 0).UTC()
	recs := make([]Record, n)
	for i := 0; i < n; i++ {
		a := netip.MustParseAddr("10.0.0.0").As4()
		a[2], a[3] = byte(i/256), byte(i%256)
		recs[i] = Record{Ts: ts.Add(time.Duration(i) * time.Second),
			Src: netip.AddrFrom4(a), In: Ingress{Router: 1, Iface: 2},
			Bytes: 100, Packets: 1}
		if err := w.Write(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), recs
}

// drainReader reads until a terminal error and returns the decoded records
// and that error.
func drainReader(rd *Reader) ([]Record, error) {
	var out []Record
	for {
		rec, err := rd.Read()
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func resyncReader(src io.Reader) (*Reader, *Metrics) {
	m := NewMetrics(telemetry.NewRegistry())
	rd := NewReader(src)
	rd.SetMetrics(m)
	rd.SetResync(true)
	return rd, m
}

// TestResyncRecoversFromBurstCorruption overwrites a byte window in the
// middle of the stream: the strict reader is poisoned, the resync reader
// counts one burst and ingests the rest of the stream.
func TestResyncRecoversFromBurstCorruption(t *testing.T) {
	const n = 200
	data, recs := chaosTrace(t, n)
	// Corrupt two records' worth of bytes starting at record 50.
	cfg := faultinject.ReaderConfig{
		Seed:        42,
		CorruptFrom: int64(headerSize + 50*v4RecordSize),
		CorruptLen:  2 * v4RecordSize,
	}

	// Strict reader: fails or silently mis-decodes at the corruption; it has
	// no way to recover the tail. (It may decode a couple of garbage records
	// before hitting an implausible read, so just assert it falls well short.)
	strict := NewReader(faultinject.NewReader(bytes.NewReader(data), cfg))
	got, _ := drainReader(strict)
	if len(got) >= n-2 {
		t.Fatalf("strict reader recovered %d/%d records through corruption; chaos config too weak", len(got), n)
	}

	rd, m := resyncReader(faultinject.NewReader(bytes.NewReader(data), cfg))
	got, err := drainReader(rd)
	if err != io.EOF {
		t.Fatalf("resync reader ended with %v, want io.EOF", err)
	}
	if m.RecordsResynced.Value() == 0 {
		t.Error("no resync burst counted")
	}
	// Everything before and after the corrupted window must be recovered;
	// the window itself (2 records, ±1 boundary casualty) is lost.
	if len(got) < n-4 {
		t.Errorf("recovered %d/%d records, want >= %d", len(got), n, n-4)
	}
	// Spot-check alignment: the last decoded record is the last written one.
	if got[len(got)-1] != recs[n-1] {
		t.Errorf("tail misaligned: %+v vs %+v", got[len(got)-1], recs[n-1])
	}
}

// TestResyncRecoversFromCutBytes cuts bytes out of the stream (lost framing),
// the other classic corruption shape.
func TestResyncRecoversFromCutBytes(t *testing.T) {
	const n = 150
	data, recs := chaosTrace(t, n)
	cfg := faultinject.ReaderConfig{
		// Cut 7 bytes out of record 30: every following record is misaligned
		// until the scanner finds the next boundary.
		SkipFrom: int64(headerSize + 30*v4RecordSize + 3),
		SkipLen:  7,
	}
	rd, m := resyncReader(faultinject.NewReader(bytes.NewReader(data), cfg))
	got, err := drainReader(rd)
	if err != io.EOF {
		t.Fatalf("resync reader ended with %v, want io.EOF", err)
	}
	if m.RecordsResynced.Value() == 0 {
		t.Error("no resync burst counted")
	}
	if len(got) < n-3 {
		t.Errorf("recovered %d/%d records", len(got), n)
	}
	if got[len(got)-1] != recs[n-1] {
		t.Errorf("tail misaligned after cut: %+v vs %+v", got[len(got)-1], recs[n-1])
	}
}

// TestResyncSurvivesScatteredBitFlips sprays random single-bit flips across
// the stream. Flips landing in flags/timestamp bytes trigger resyncs; flips
// in payload bytes just decode wrong values (the format has no per-record
// checksum — the engine's statistics absorb those). The invariant under test:
// the reader keeps going and terminates cleanly, never wedging or panicking.
func TestResyncSurvivesScatteredBitFlips(t *testing.T) {
	const n = 500
	data, _ := chaosTrace(t, n)
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := faultinject.ReaderConfig{Seed: seed, BitFlipEvery: 400}
		rd, _ := resyncReader(faultinject.NewReader(bytes.NewReader(data), cfg))
		got, err := drainReader(rd)
		// A flip in the header fails loudly; a flip misaligning the tail ends
		// in ErrUnexpectedEOF; both are acceptable loud outcomes. Silent
		// wedging or a panic is not.
		switch {
		case err == io.EOF, err == io.ErrUnexpectedEOF:
			if len(got) < n/2 {
				t.Errorf("seed %d: recovered only %d/%d records", seed, len(got), n)
			}
		case errors.Is(err, ErrBadMagic), errors.Is(err, ErrBadVersion):
			// Header took the flip: correct loud failure, nothing decoded.
		default:
			t.Errorf("seed %d: unexpected terminal error %v", seed, err)
		}
	}
}

// TestResyncTruncatedTailStillLoud: resynchronization must not convert a
// truncated final record into silence — the strict io.ErrUnexpectedEOF
// contract survives degraded mode.
func TestResyncTruncatedTailStillLoud(t *testing.T) {
	const n = 20
	data, _ := chaosTrace(t, n)
	cfg := faultinject.ReaderConfig{TruncateAt: int64(len(data) - 5)}
	rd, m := resyncReader(faultinject.NewReader(bytes.NewReader(data), cfg))
	got, err := drainReader(rd)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated tail ended with %v, want io.ErrUnexpectedEOF", err)
	}
	if len(got) != n-1 {
		t.Errorf("recovered %d records before the truncation, want %d", len(got), n-1)
	}
	if m.DecodeErrors.Value() == 0 {
		t.Error("truncation not counted as a decode error")
	}
}

// TestResyncHeaderCorruptionStillLoud: the stream header is never
// resynchronized — a corrupt header is a different file, not a degraded one.
func TestResyncHeaderCorruptionStillLoud(t *testing.T) {
	data, _ := chaosTrace(t, 5)
	cfg := faultinject.ReaderConfig{Seed: 9, CorruptFrom: 0, CorruptLen: 4}
	rd, _ := resyncReader(faultinject.NewReader(bytes.NewReader(data), cfg))
	if _, err := drainReader(rd); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("corrupt header ended with %v, want ErrBadMagic", err)
	}
}

// TestReaderHandlesShortReads feeds the stream one byte per syscall: both
// reader modes must decode everything (bufio absorbs the fragmentation).
func TestReaderHandlesShortReads(t *testing.T) {
	const n = 50
	data, recs := chaosTrace(t, n)
	for _, resync := range []bool{false, true} {
		rd := NewReader(faultinject.NewReader(bytes.NewReader(data),
			faultinject.ReaderConfig{ShortReads: true}))
		rd.SetResync(resync)
		got, err := drainReader(rd)
		if err != io.EOF {
			t.Fatalf("resync=%v: %v", resync, err)
		}
		if len(got) != n || got[0] != recs[0] || got[n-1] != recs[n-1] {
			t.Errorf("resync=%v: decoded %d/%d records", resync, len(got), n)
		}
	}
}

// stallReader sleeps for a millisecond before every read of up to 256 bytes.
type stallReader struct{ r io.Reader }

func (s stallReader) Read(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return s.r.Read(p[:min(len(p), 256)])
}

// TestReaderSurvivesStalls drives the reader through a stalling source — the
// slow-producer shape — and expects a complete, correct decode.
func TestReaderSurvivesStalls(t *testing.T) {
	const n = 30
	data, _ := chaosTrace(t, n)
	rd, _ := resyncReader(stallReader{bytes.NewReader(data)})
	got, err := drainReader(rd)
	if err != io.EOF || len(got) != n {
		t.Fatalf("decoded %d/%d, err %v", len(got), n, err)
	}
}

// TestReaderIOErrorPropagates: a mid-stream I/O error (not corruption) must
// surface as that error in both modes, not be scanned past.
func TestReaderIOErrorPropagates(t *testing.T) {
	data, _ := chaosTrace(t, 50)
	for _, resync := range []bool{false, true} {
		cfg := faultinject.ReaderConfig{ErrAfter: int64(headerSize + 10*v4RecordSize + 3)}
		rd := NewReader(faultinject.NewReader(bytes.NewReader(data), cfg))
		rd.SetResync(resync)
		got, err := drainReader(rd)
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("resync=%v: err = %v, want the injected I/O error", resync, err)
		}
		if len(got) != 10 {
			t.Errorf("resync=%v: decoded %d records before the error, want 10", resync, len(got))
		}
	}
}

// TestWriterSurfacesWriteErrors: flow.Writer buffers via bufio, so an
// injected disk failure must surface by Flush at the latest.
func TestWriterSurfacesWriteErrors(t *testing.T) {
	fw := faultinject.NewWriter(io.Discard, faultinject.WriterConfig{FailAfter: 64})
	w := NewWriter(fw)
	ts := time.Unix(1_600_000_000, 0).UTC()
	var failed error
	for i := 0; i < 100 && failed == nil; i++ {
		failed = w.Write(Record{Ts: ts, Src: netip.MustParseAddr("10.0.0.1"),
			In: Ingress{Router: 1, Iface: 1}, Bytes: 1, Packets: 1})
	}
	if failed == nil {
		failed = w.Flush()
	}
	if !errors.Is(failed, faultinject.ErrInjected) {
		t.Fatalf("write error never surfaced: %v", failed)
	}
}
