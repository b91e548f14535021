package stattime

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/persist"
)

// refBinner is the map-keyed, time.Time binner this package shipped before
// the integer window: per-record Truncate, a map of open buckets, a sweep of
// that map on every accepted record, one atomic per counter per record. It
// is slow and obviously a transcription of §3.1; the Binner must agree with
// it on every stream.
type refBinner struct {
	cfg    Config
	emit   func(Bucket)
	m      *Metrics
	now    time.Time
	open   map[int64]*Bucket
	rejoin bool
}

func newRefBinner(cfg Config, emit func(Bucket)) *refBinner {
	return &refBinner{cfg: cfg, emit: emit, m: NewMetrics(nil), open: map[int64]*Bucket{}}
}

func (b *refBinner) offer(rec flow.Record) bool {
	if !rec.Valid() {
		b.m.DroppedStale.Inc()
		return false
	}
	ts := rec.Ts
	if b.now.IsZero() {
		b.now = ts
	}
	if ts.After(b.now) {
		if ts.Sub(b.now) > b.cfg.MaxSkew && !b.rejoin {
			b.m.DroppedFuture.Inc()
			return false
		}
		b.now = ts
		b.m.DriftCorrections.Inc()
	}
	start := ts.Truncate(b.cfg.Bucket)
	oldest := b.now.Truncate(b.cfg.Bucket).Add(-time.Duration(b.cfg.MaxOpenBuckets-1) * b.cfg.Bucket)
	if start.Before(oldest) {
		b.m.DroppedStale.Inc()
		return false
	}
	key := start.UnixNano()
	bk := b.open[key]
	if bk == nil {
		bk = &Bucket{Start: start}
		b.open[key] = bk
	}
	bk.Records = append(bk.Records, rec)
	b.rejoin = false
	b.m.Accepted.Inc()
	b.m.RecordLag.Observe(b.now.Sub(ts).Seconds())
	if start.Before(b.now.Truncate(b.cfg.Bucket)) {
		b.m.Rebinned.Inc()
	}
	b.flushBefore(oldest)
	b.m.OpenBuckets.Set(int64(len(b.open)))
	return true
}

func (b *refBinner) keys() []int64 {
	keys := make([]int64, 0, len(b.open))
	for k := range b.open {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func (b *refBinner) flushBefore(cutoff time.Time) {
	for _, k := range b.keys() {
		if !time.Unix(0, k).Before(cutoff) {
			continue
		}
		if bk := b.open[k]; len(bk.Records) < b.cfg.MinActivity {
			b.m.BucketsDiscarded.Inc()
			b.m.DroppedInactive.Add(uint64(len(bk.Records)))
		} else {
			b.m.BucketsEmitted.Inc()
			b.emit(*bk)
		}
		delete(b.open, k)
	}
}

func (b *refBinner) flush() {
	b.flushBefore(time.Unix(0, 1<<62))
	b.m.OpenBuckets.Set(0)
}

func (b *refBinner) encode() []byte {
	enc := persist.NewEncoder(persistTestMagic, persistTestVersion)
	enc.Time(b.now)
	keys := b.keys()
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		enc.Varint(k)
		enc.Uvarint(uint64(len(b.open[k].Records)))
		for _, rec := range b.open[k].Records {
			rec.EncodeTo(enc)
		}
	}
	return enc.Finish()
}

func (b *refBinner) restore(data []byte) error {
	dec, err := persist.NewDecoder(data, persistTestMagic, persistTestVersion)
	if err != nil {
		return err
	}
	if b.now, err = dec.Time(); err != nil {
		return err
	}
	n, err := dec.Len()
	if err != nil {
		return err
	}
	b.open = map[int64]*Bucket{}
	for i := 0; i < n; i++ {
		key, err := dec.Varint()
		if err != nil {
			return err
		}
		cnt, err := dec.Len()
		if err != nil {
			return err
		}
		bk := &Bucket{Start: time.Unix(0, key).UTC()}
		for r := 0; r < cnt; r++ {
			var rec flow.Record
			if err := rec.DecodeFrom(dec); err != nil {
				return err
			}
			bk.Records = append(bk.Records, rec)
		}
		b.open[key] = bk
	}
	b.rejoin = true
	b.m.OpenBuckets.Set(int64(n))
	return dec.Finish()
}

// emitted is one bucket as a differential run saw it: its start and the
// tags (flow.Record.Packets, unique per stream) of its records in order.
type emitted struct {
	start int64
	tags  []uint32
}

func tagsOf(recs []flow.Record) []uint32 {
	tags := make([]uint32, len(recs))
	for i, r := range recs {
		tags[i] = r.Packets
	}
	return tags
}

// diffPlan is what a differential run does besides offering the stream.
type diffPlan struct {
	// chunks[i%len] is the size of the i-th OfferBatch call; 0 means a
	// single Offer. nil offers record by record.
	chunks []int
	// recycle hands every emitted bucket back as Server does; without it the
	// run keeps them and checks at the end that none was written to again.
	recycle bool
	// cut, when in range, checkpoints both binners before stream[cut],
	// compares the bytes, and continues on fresh binners restored from the
	// REFERENCE's bytes (the format the parent commit wrote).
	cut int
	// after, when set (Bucket != 0), is the configuration of the binners
	// restored at the cut: a restart under changed settings.
	after Config
}

// runDifferential drives the Binner and the reference with one stream and
// fails on any observable difference.
func runDifferential(t *testing.T, cfg Config, stream []flow.Record, plan diffPlan) {
	t.Helper()
	var got, want []emitted
	var kept []Bucket
	var bin *Binner
	emitNew := func(bk Bucket) {
		got = append(got, emitted{bk.Start.UnixNano(), tagsOf(bk.Records)})
		if plan.recycle {
			bin.Recycle(bk.Records)
		} else {
			kept = append(kept, bk)
		}
	}
	emitRef := func(bk Bucket) { want = append(want, emitted{bk.Start.UnixNano(), tagsOf(bk.Records)}) }
	newPair := func() (*Binner, *refBinner) {
		b, err := NewBinner(cfg, emitNew)
		if err != nil {
			t.Fatal(err)
		}
		return b, newRefBinner(cfg, emitRef)
	}
	var ref *refBinner
	bin, ref = newPair()

	checked := 0 // emitted buckets already compared
	check := func(at string) {
		t.Helper()
		if !reflect.DeepEqual(got[checked:], want[checked:]) {
			t.Fatalf("%s: emitted buckets differ from #%d on\n got  %v\n want %v", at, checked, got[checked:], want[checked:])
		}
		checked = len(got)
		if g, w := bin.Stats(), ref.m.stats(); g != w {
			t.Fatalf("%s: stats differ\n got  %+v\n want %+v", at, g, w)
		}
		for name, pair := range map[string][2]uint64{
			"DriftCorrections": {bin.m.DriftCorrections.Value(), ref.m.DriftCorrections.Value()},
			"Rebinned":         {bin.m.Rebinned.Value(), ref.m.Rebinned.Value()},
			"OpenBuckets":      {uint64(bin.m.OpenBuckets.Value()), uint64(ref.m.OpenBuckets.Value())},
		} {
			if pair[0] != pair[1] {
				t.Fatalf("%s: %s = %d, reference %d", at, name, pair[0], pair[1])
			}
		}
		g, w := bin.m.RecordLag.Snapshot(), ref.m.RecordLag.Snapshot()
		if g.Count != w.Count || !reflect.DeepEqual(g.Cumulative, w.Cumulative) {
			t.Fatalf("%s: RecordLag differs\n got  %d %v\n want %d %v", at, g.Count, g.Cumulative, w.Count, w.Cumulative)
		}
		if !bin.Now().Equal(ref.now) {
			t.Fatalf("%s: Now = %v, reference %v", at, bin.Now(), ref.now)
		}
		if g, w := encodeBinner(t, bin), ref.encode(); !bytes.Equal(g, w) {
			t.Fatalf("%s: EncodeState differs from the reference (%d vs %d bytes)", at, len(g), len(w))
		}
	}

	offer := func(recs []flow.Record, call int) {
		size := 0
		if len(plan.chunks) > 0 {
			size = plan.chunks[call%len(plan.chunks)]
		}
		accepted := 0
		for _, r := range recs {
			if ref.offer(r) {
				accepted++
			}
		}
		if size > 0 {
			bin.OfferBatch(recs) // what it accepted shows in the Stats comparison
		} else if ok := bin.Offer(recs[0]); ok != (accepted == 1) {
			t.Fatalf("Offer(tag %d) = %v, reference %v", recs[0].Packets, ok, accepted == 1)
		}
	}

	for i, call := 0, 0; i < len(stream); call++ {
		if i == plan.cut {
			check(fmt.Sprintf("before the cut at %d", i))
			data := ref.encode()
			if plan.after.Bucket != 0 {
				cfg = plan.after
			}
			bin, ref = newPair() // counters are per process: both sides restart from zero
			if err := restoreBinner(t, bin, data); err != nil {
				t.Fatalf("restore of the reference's checkpoint: %v", err)
			}
			if err := ref.restore(data); err != nil {
				t.Fatalf("reference restore: %v", err)
			}
			plan.cut = -1
			continue
		}
		n := 1
		if len(plan.chunks) > 0 {
			n = max(1, plan.chunks[call%len(plan.chunks)])
		}
		n = min(n, len(stream)-i)
		if plan.cut > i {
			n = min(n, plan.cut-i)
		}
		offer(stream[i:i+n], call)
		i += n
		check(fmt.Sprintf("after record %d", i))
	}
	bin.Flush()
	ref.flush()
	check("after Flush")
	if len(bin.spare) != 0 {
		t.Errorf("Flush kept %d spare buffers", len(bin.spare))
	}
	// The ownership rule: a bucket that was not recycled is never written
	// to again, however many buckets the Binner opened after it.
	for i, bk := range kept {
		if !reflect.DeepEqual(tagsOf(bk.Records), got[i].tags) {
			t.Fatalf("kept bucket %d was overwritten after it was emitted", i)
		}
	}
}

func (m *Metrics) stats() Stats {
	return Stats{
		Accepted: m.Accepted.Value(), DroppedStale: m.DroppedStale.Value(), DroppedFuture: m.DroppedFuture.Value(),
		DroppedInactive: m.DroppedInactive.Value(), BucketsEmitted: m.BucketsEmitted.Value(), BucketsDiscarded: m.BucketsDiscarded.Value(),
	}
}

// genStream turns fuzz bytes into a record stream around cfg: two bytes per
// record, the first picks what kind of timestamp it carries relative to a
// cursor that follows the in-order traffic, the second how far.
func genStream(cfg Config, data []byte) []flow.Record {
	// Off the unix-epoch minute lattice, so a 7 s bucket's Truncate
	// alignment (relative to year 1) differs from unix-nanos modulo 7 s.
	cursor := time.Unix(1_700_000_003, 500).UTC()
	src := netip.MustParseAddr("192.0.2.1")
	window := time.Duration(cfg.MaxOpenBuckets) * cfg.Bucket
	var stream []flow.Record
	for i := 0; i+1 < len(data); i += 2 {
		kind, amount := data[i]%16, time.Duration(data[i+1])
		rec := flow.Record{Src: src, In: flow.Ingress{Router: 1, Iface: 1}, Packets: uint32(len(stream) + 1)}
		switch {
		case kind < 7: // in order, a fraction of a bucket on
			cursor = cursor.Add(amount * cfg.Bucket / 512)
			rec.Ts = cursor
		case kind < 9: // exactly on a bucket boundary
			cursor = cursor.Truncate(cfg.Bucket).Add(cfg.Bucket)
			rec.Ts = cursor
		case kind < 11: // late, inside or just outside the window
			rec.Ts = cursor.Add(-amount * window / 200)
		case kind == 11: // stale by a wide margin
			rec.Ts = cursor.Add(-window - amount*time.Second - cfg.Bucket)
		case kind == 12: // ahead within MaxSkew: statistical time jumps
			cursor = cursor.Add(amount * cfg.MaxSkew / 255)
			rec.Ts = cursor
		case kind == 13: // ahead by more than MaxSkew: dropped, unless rejoining
			rec.Ts = cursor.Add(cfg.MaxSkew + amount*time.Second + 1)
		case kind == 14: // invalid
			if amount%2 == 0 {
				rec.Src = netip.Addr{}
				rec.Ts = cursor
			}
		default: // the same, but traffic follows it: downtime, not a clock error
			cursor = cursor.Add(cfg.MaxSkew + amount*time.Minute)
			rec.Ts = cursor
		}
		stream = append(stream, rec)
	}
	return stream
}

// fuzzConfig maps one byte onto the configurations the issue names: Bucket
// 7 s or 60 s, MaxOpenBuckets 1 or 3, MinActivity 0-3.
func fuzzConfig(sel uint8) Config {
	cfg := DefaultConfig()
	if sel&1 != 0 {
		cfg.Bucket = 7 * time.Second
		cfg.MaxSkew = 40 * time.Second
	}
	if sel&2 != 0 {
		cfg.MaxOpenBuckets = 1
	}
	cfg.MinActivity = int(sel >> 2 & 3)
	return cfg
}

func fuzzPlan(sel uint8, cut uint16, records int) diffPlan {
	plan := diffPlan{recycle: sel&1 != 0, cut: -1}
	switch sel >> 1 & 3 {
	case 1:
		plan.chunks = []int{512}
	case 2:
		plan.chunks = []int{3, 0, 1, 17, 0, 64}
	case 3:
		plan.chunks = []int{2}
	}
	if sel&8 != 0 && records > 0 {
		plan.cut = int(cut) % records
	}
	return plan
}

func TestBinnerDifferential(t *testing.T) {
	at := func(off time.Duration, tag uint32) flow.Record {
		r := rec(t0.Add(off))
		r.Packets = tag
		return r
	}
	var inOrder, lateMix []flow.Record
	for i := 0; i < 600; i++ {
		inOrder = append(inOrder, at(time.Duration(i)*time.Second, uint32(i+1)))
		lateMix = append(lateMix, at(time.Duration(i)*time.Second-time.Duration(i%5)*40*time.Second, uint32(i+1)))
	}
	faults := []flow.Record{
		at(0, 1), at(time.Hour, 2) /* future */, at(4*time.Minute, 3), {}, /* invalid */
		at(-10*time.Minute, 5) /* stale */, at(3*time.Minute+59*time.Second, 6), at(2*time.Minute, 7), /* oldest open */
		at(time.Minute, 8) /* just stale */, at(9*time.Minute, 9), at(9*time.Minute, 10), at(8*time.Minute, 11),
	}
	rejoin := append(append([]flow.Record(nil), inOrder[:200]...),
		at(3*time.Hour, 1001), at(3*time.Hour+time.Second, 1002), at(3*time.Minute, 1003), at(9*time.Hour, 1004))
	seven := DefaultConfig()
	seven.Bucket, seven.MaxSkew = 7*time.Second, 40*time.Second
	one := DefaultConfig()
	one.MaxOpenBuckets = 1
	picky := DefaultConfig()
	picky.MinActivity = 3

	cases := []struct {
		name   string
		cfg    Config
		stream []flow.Record
		plan   diffPlan
	}{
		{"in order, per record", DefaultConfig(), inOrder, diffPlan{cut: -1}},
		{"in order, batches of 512, recycled", DefaultConfig(), inOrder, diffPlan{chunks: []int{512}, recycle: true, cut: -1}},
		{"late within the window, mixed chunking", DefaultConfig(), lateMix, diffPlan{chunks: []int{3, 0, 1, 17, 0, 64}, recycle: true, cut: -1}},
		{"late, 7 s buckets", seven, lateMix, diffPlan{chunks: []int{5}, cut: -1}},
		{"late, one open bucket", one, lateMix, diffPlan{chunks: []int{7, 0}, recycle: true, cut: -1}},
		{"stale, future and invalid records", DefaultConfig(), faults, diffPlan{cut: -1}},
		{"stale, future and invalid records in one batch", DefaultConfig(), faults, diffPlan{chunks: []int{64}, cut: -1}},
		{"activity threshold discards", picky, lateMix[:40], diffPlan{chunks: []int{4}, recycle: true, cut: -1}},
		{"cut mid-stream, rejoin jump after it", DefaultConfig(), rejoin, diffPlan{chunks: []int{9}, recycle: true, cut: 200}},
		{"cut, then the skew policy applies again", DefaultConfig(),
			append(append([]flow.Record(nil), inOrder[:100]...), at(90*time.Second, 2001), at(2*time.Hour, 2002), at(100*time.Second, 2003)),
			diffPlan{cut: 100}},
		{"restart with a smaller window", DefaultConfig(), lateMix, diffPlan{chunks: []int{0, 6}, recycle: true, cut: 305, after: one}},
		{"restart with another bucket length", DefaultConfig(), lateMix, diffPlan{chunks: []int{4}, cut: 301, after: seven}},
		{"cut before the first record", DefaultConfig(), inOrder[:50], diffPlan{cut: 0}},
		{"cut with one open bucket, 7 s", func() Config { c := seven; c.MaxOpenBuckets = 1; return c }(), lateMix, diffPlan{chunks: []int{0, 31}, cut: 333}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runDifferential(t, tc.cfg, tc.stream, tc.plan) })
	}
}

// FuzzBinnerDifferential generates streams (see genStream), configurations
// and call patterns and holds the Binner to the reference on all of them.
func FuzzBinnerDifferential(f *testing.F) {
	f.Add([]byte{0, 10, 0, 200, 8, 0, 9, 100, 0, 255, 10, 250, 11, 3, 0, 9}, uint8(0), uint8(0), uint16(0))
	f.Add([]byte{0, 255, 0, 255, 0, 255, 12, 200, 13, 1, 14, 0, 14, 1, 15, 2, 0, 1, 9, 40}, uint8(5), uint8(13), uint16(6))
	f.Add([]byte{7, 0, 7, 0, 7, 0, 9, 199, 9, 201, 7, 0, 10, 100, 15, 0, 9, 10}, uint8(14), uint8(11), uint16(4))
	f.Add([]byte{3, 128, 12, 255, 12, 255, 9, 255, 3, 1, 11, 0, 13, 255, 8, 8}, uint8(3), uint8(6), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, cfgSel, planSel uint8, cut uint16) {
		if len(data) > 1024 {
			data = data[:1024] // every call is followed by a full comparison: keep streams short
		}
		cfg := fuzzConfig(cfgSel)
		stream := genStream(cfg, data)
		runDifferential(t, cfg, stream, fuzzPlan(planSel, cut, len(stream)))
	})
}
