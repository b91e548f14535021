// Package faultinject wraps io.Reader/io.Writer with deterministic, seeded
// fault injection for the chaos tests of the crash-recovery layer: bit
// flips, truncation, short reads, torn writes, and write errors. Every
// fault position is derived from the seed, so a failing chaos test
// reproduces exactly by rerunning with the same configuration.
//
// The package is a test harness, not a production facility: it lives under
// internal/ and is imported only from _test files.
package faultinject

import (
	"errors"
	"io"
)

// ErrInjected is the error every injected read/write failure returns, so
// tests can assert the failure came from the harness and not the code under
// test.
var ErrInjected = errors.New("faultinject: injected fault")

// rng is xorshift64*: tiny, deterministic, and plenty for picking fault
// positions.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// ReaderConfig selects the faults a Reader injects. The zero value injects
// nothing (a transparent wrapper).
type ReaderConfig struct {
	// Seed drives every random choice; the same seed over the same input
	// produces the same corrupted byte stream.
	Seed uint64
	// BitFlipEvery flips one random bit in roughly every N delivered bytes
	// (an expected rate, randomized per flip). 0 disables.
	BitFlipEvery int
	// CorruptFrom/CorruptLen, when CorruptLen > 0, overwrite that byte
	// window of the stream with seeded garbage — a deterministic "burst"
	// corruption for tests that need to know exactly what was damaged.
	CorruptFrom int64
	CorruptLen  int
	// SkipFrom/SkipLen, when SkipLen > 0, cut that byte window out of the
	// stream entirely (records lose their framing, the classic mid-file
	// truncation).
	SkipFrom int64
	SkipLen  int
	// TruncateAt ends the stream (clean io.EOF) after N bytes. 0 disables.
	TruncateAt int64
	// ShortReads caps every Read at 1 byte, exercising io.ReadFull
	// resumption paths. Off by default.
	ShortReads bool
	// ErrAfter makes Read return ErrInjected once N bytes were delivered.
	// 0 disables.
	ErrAfter int64
}

// Reader applies ReaderConfig faults to an underlying reader. Not safe for
// concurrent use (like the readers it wraps).
type Reader struct {
	r   io.Reader
	cfg ReaderConfig
	rng *rng

	off      int64 // bytes delivered to the caller (post-skip stream offset)
	src      int64 // bytes consumed from the underlying reader
	nextFlip int64
}

// NewReader wraps r with fault injection.
func NewReader(r io.Reader, cfg ReaderConfig) *Reader {
	fr := &Reader{r: r, cfg: cfg, rng: newRNG(cfg.Seed)}
	if cfg.BitFlipEvery > 0 {
		fr.nextFlip = int64(fr.rng.intn(2*cfg.BitFlipEvery) + 1)
	}
	return fr
}

func (fr *Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if fr.cfg.TruncateAt > 0 && fr.off >= fr.cfg.TruncateAt {
		return 0, io.EOF
	}
	if fr.cfg.ErrAfter > 0 && fr.off >= fr.cfg.ErrAfter {
		return 0, ErrInjected
	}
	if fr.cfg.ShortReads {
		p = p[:1]
	}
	// Bound the read so fault windows land exactly where configured.
	limit := int64(len(p))
	clamp := func(boundary int64) {
		if boundary > fr.off && boundary-fr.off < limit {
			limit = boundary - fr.off
		}
	}
	if fr.cfg.TruncateAt > 0 {
		clamp(fr.cfg.TruncateAt)
	}
	if fr.cfg.ErrAfter > 0 {
		clamp(fr.cfg.ErrAfter)
	}

	// Skip window: consume-and-discard when the source cursor enters it.
	if fr.cfg.SkipLen > 0 && fr.src >= fr.cfg.SkipFrom && fr.src < fr.cfg.SkipFrom+int64(fr.cfg.SkipLen) {
		if err := fr.discard(fr.cfg.SkipFrom + int64(fr.cfg.SkipLen) - fr.src); err != nil {
			return 0, err
		}
	} else if fr.cfg.SkipLen > 0 && fr.src < fr.cfg.SkipFrom {
		if fr.cfg.SkipFrom-fr.src < limit {
			limit = fr.cfg.SkipFrom - fr.src
		}
	}

	n, err := fr.r.Read(p[:limit])
	fr.src += int64(n)
	fr.corrupt(p[:n])
	fr.off += int64(n)
	return n, err
}

// discard consumes n bytes from the underlying reader without delivering
// them.
func (fr *Reader) discard(n int64) error {
	var scratch [512]byte
	for n > 0 {
		chunk := int64(len(scratch))
		if n < chunk {
			chunk = n
		}
		m, err := fr.r.Read(scratch[:chunk])
		fr.src += int64(m)
		n -= int64(m)
		if err != nil {
			return err
		}
	}
	return nil
}

// corrupt applies the burst window and randomized bit flips to a delivered
// chunk, using delivered-stream offsets so faults are stable regardless of
// read sizing.
func (fr *Reader) corrupt(p []byte) {
	if fr.cfg.CorruptLen > 0 {
		from, to := fr.cfg.CorruptFrom, fr.cfg.CorruptFrom+int64(fr.cfg.CorruptLen)
		for i := range p {
			if off := fr.off + int64(i); off >= from && off < to {
				p[i] = byte(fr.rng.next())
			}
		}
	}
	if fr.cfg.BitFlipEvery > 0 {
		for i := range p {
			if fr.off+int64(i)+1 == fr.nextFlip {
				p[i] ^= 1 << fr.rng.intn(8)
				fr.nextFlip += int64(fr.rng.intn(2*fr.cfg.BitFlipEvery) + 1)
			}
		}
	}
}

// WriterConfig selects the faults a Writer injects. The zero value injects
// nothing.
type WriterConfig struct {
	// FailAfter makes Write return ErrInjected once N bytes were accepted;
	// the failing Write itself accepts the bytes up to the boundary and
	// reports a short write with the error (the torn-write shape). 0
	// disables.
	FailAfter int64
	// FailAlways makes every Write fail immediately (a dead disk).
	FailAlways bool
	// ShortWrites splits every Write into 1-byte underlying writes,
	// exercising partial-write handling. Data is unchanged.
	ShortWrites bool
}

// Writer applies WriterConfig faults to an underlying writer.
type Writer struct {
	w   io.Writer
	cfg WriterConfig
	off int64
}

// NewWriter wraps w with fault injection.
func NewWriter(w io.Writer, cfg WriterConfig) *Writer {
	return &Writer{w: w, cfg: cfg}
}

func (fw *Writer) Write(p []byte) (int, error) {
	if fw.cfg.FailAlways {
		return 0, ErrInjected
	}
	limit := len(p)
	failing := false
	if fw.cfg.FailAfter > 0 {
		if fw.off >= fw.cfg.FailAfter {
			return 0, ErrInjected
		}
		if remaining := fw.cfg.FailAfter - fw.off; int64(limit) > remaining {
			limit = int(remaining)
			failing = true
		}
	}
	n, err := fw.write(p[:limit])
	fw.off += int64(n)
	if err == nil && failing {
		err = ErrInjected
	}
	return n, err
}

func (fw *Writer) write(p []byte) (int, error) {
	if !fw.cfg.ShortWrites {
		return fw.w.Write(p)
	}
	total := 0
	for total < len(p) {
		n, err := fw.w.Write(p[total : total+1])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
