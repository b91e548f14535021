package stattime

import (
	"fmt"
	"time"

	"ipd/internal/flow"
	"ipd/internal/persist"
)

// EncodeState appends the Binner's restorable state — the inferred
// statistical now and every open (buffered, not yet flushed) bucket with
// its records — to enc. Buckets and records are written in deterministic
// order (buckets by start, records in arrival order), so identical binner
// states produce identical bytes. Call under the same lock that guards
// Offer.
func (b *Binner) EncodeState(enc *persist.Encoder) {
	enc.Time(b.now)
	enc.Uvarint(uint64(len(b.open)))
	for i := range b.open {
		bk := &b.open[i]
		enc.Varint(bk.start)
		enc.Uvarint(uint64(len(bk.recs)))
		for r := range bk.recs {
			bk.recs[r].EncodeTo(enc)
		}
	}
}

// RestoreState replaces the Binner's statistical now and open buckets with
// the state read from dec. The decode is all-or-nothing: on error the
// binner is left unchanged. Counters are not restored — they are cumulative
// process telemetry, not algorithm state.
func (b *Binner) RestoreState(dec *persist.Decoder) error {
	now, err := dec.Time()
	if err != nil {
		return fmt.Errorf("stattime: restore now: %w", err)
	}
	if sec := now.Unix(); !now.IsZero() && (sec >= maxUnixSec || sec <= -maxUnixSec) {
		return fmt.Errorf("stattime: restore now: %v out of range", now)
	}
	n, err := dec.Len()
	if err != nil {
		return fmt.Errorf("stattime: restore bucket count: %w", err)
	}
	open := make([]openBucket, 0, max(n, b.cfg.MaxOpenBuckets))
	for i := 0; i < n; i++ {
		key, err := dec.Varint()
		if err != nil {
			return fmt.Errorf("stattime: restore bucket key: %w", err)
		}
		if i > 0 && key <= open[i-1].start {
			return fmt.Errorf("stattime: restore bucket key: %d not after %d", key, open[i-1].start)
		}
		cnt, err := dec.Len()
		if err != nil {
			return fmt.Errorf("stattime: restore record count: %w", err)
		}
		// A key off the current lattice (written under another Bucket
		// length) gets an empty interval: it admits no further records and
		// holds what it has until flushed.
		bk := openBucket{start: key, end: key, at: time.Unix(0, key).UTC()}
		if bk.at.Truncate(b.cfg.Bucket).Equal(bk.at) {
			bk.end = key + b.bucket
		}
		bk.recs = make([]flow.Record, cnt)
		for r := range bk.recs {
			if err := bk.recs[r].DecodeFrom(dec); err != nil {
				return fmt.Errorf("stattime: restore record: %w", err)
			}
		}
		open = append(open, bk)
	}
	b.now, b.nowNs = now, now.UnixNano()
	b.curStart, b.curEnd, b.oldest = 0, 0, 0
	if !now.IsZero() {
		b.moveWindow()
	}
	b.open = open
	b.rejoin = true
	b.m.OpenBuckets.Set(int64(len(open)))
	return nil
}
