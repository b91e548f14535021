package stattime

import (
	"net/netip"
	"testing"
	"time"

	"ipd/internal/flow"
)

var t0 = time.Unix(1_600_000_000, 0).UTC().Truncate(time.Minute)

func rec(ts time.Time) flow.Record {
	return flow.Record{
		Ts:  ts,
		Src: netip.MustParseAddr("192.0.2.1"),
		In:  flow.Ingress{Router: 1, Iface: 1},
	}
}

func collect(t *testing.T, cfg Config) (*Binner, *[]Bucket) {
	t.Helper()
	var out []Bucket
	b, err := NewBinner(cfg, func(bk Bucket) { out = append(out, bk) })
	if err != nil {
		t.Fatal(err)
	}
	return b, &out
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Bucket: 0, MaxOpenBuckets: 1},
		{Bucket: time.Minute, MinActivity: -1, MaxOpenBuckets: 1},
		{Bucket: time.Minute, MaxSkew: -time.Second, MaxOpenBuckets: 1},
		{Bucket: time.Minute, MaxOpenBuckets: 0},
	}
	for i, cfg := range bad {
		if _, err := NewBinner(cfg, func(Bucket) {}); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewBinner(DefaultConfig(), nil); err == nil {
		t.Error("nil emit should be rejected")
	}
}

func TestBucketAssignmentAndFlush(t *testing.T) {
	cfg := DefaultConfig()
	b, out := collect(t, cfg)
	// Two records in minute 0, one in minute 1.
	for _, off := range []time.Duration{5 * time.Second, 40 * time.Second, 70 * time.Second} {
		if !b.Offer(rec(t0.Add(off))) {
			t.Fatalf("Offer(%v) rejected", off)
		}
	}
	// Nothing flushed yet (MaxOpenBuckets=3).
	if len(*out) != 0 {
		t.Fatalf("premature flush: %d buckets", len(*out))
	}
	// Advancing time to minute 3 pushes minute 0 out of the window.
	b.Offer(rec(t0.Add(3 * time.Minute)))
	if len(*out) != 1 || !(*out)[0].Start.Equal(t0) || len((*out)[0].Records) != 2 {
		t.Fatalf("after advance: %+v", *out)
	}
	b.Flush()
	if len(*out) != 3 {
		t.Fatalf("after Flush: %d buckets", len(*out))
	}
	// Buckets must come out in increasing start order.
	for i := 1; i < len(*out); i++ {
		if !(*out)[i-1].Start.Before((*out)[i].Start) {
			t.Fatal("buckets out of order")
		}
	}
	st := b.Stats()
	if st.Accepted != 4 || st.BucketsEmitted != 3 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFutureClockDoesNotDragAxis(t *testing.T) {
	cfg := DefaultConfig()
	b, _ := collect(t, cfg)
	b.Offer(rec(t0))
	// A router clock 1 h in the future must be rejected...
	if b.Offer(rec(t0.Add(time.Hour))) {
		t.Fatal("future record accepted")
	}
	// ...and must not move statistical time.
	if !b.Now().Equal(t0) {
		t.Fatalf("Now = %v, want %v", b.Now(), t0)
	}
	// Within MaxSkew the axis follows.
	b.Offer(rec(t0.Add(4 * time.Minute)))
	if !b.Now().Equal(t0.Add(4 * time.Minute)) {
		t.Fatalf("Now = %v", b.Now())
	}
	if b.Stats().DroppedFuture != 1 {
		t.Errorf("DroppedFuture = %d", b.Stats().DroppedFuture)
	}
}

func TestStaleRecordsDropped(t *testing.T) {
	cfg := DefaultConfig() // window = 3 buckets
	b, _ := collect(t, cfg)
	b.Offer(rec(t0.Add(10 * time.Minute)))
	if b.Offer(rec(t0)) {
		t.Fatal("10-minute-old record accepted with 3-minute window")
	}
	if b.Stats().DroppedStale != 1 {
		t.Errorf("DroppedStale = %d", b.Stats().DroppedStale)
	}
	// Late data within the window is fine.
	if !b.Offer(rec(t0.Add(9 * time.Minute))) {
		t.Fatal("late-but-in-window record rejected")
	}
}

func TestInvalidRecordDropped(t *testing.T) {
	b, _ := collect(t, DefaultConfig())
	if b.Offer(flow.Record{}) {
		t.Fatal("invalid record accepted")
	}
}

func TestActivityThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinActivity = 3
	b, out := collect(t, cfg)
	// Minute 0: 2 records (below threshold). Minute 1: 3 records.
	b.Offer(rec(t0))
	b.Offer(rec(t0.Add(time.Second)))
	for i := 0; i < 3; i++ {
		b.Offer(rec(t0.Add(time.Minute + time.Duration(i)*time.Second)))
	}
	b.Flush()
	if len(*out) != 1 || !(*out)[0].Start.Equal(t0.Add(time.Minute)) {
		t.Fatalf("buckets = %+v", *out)
	}
	st := b.Stats()
	if st.BucketsDiscarded != 1 || st.DroppedInactive != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBucketEnd(t *testing.T) {
	bk := Bucket{Start: t0}
	if !bk.End(time.Minute).Equal(t0.Add(time.Minute)) {
		t.Error("End")
	}
}

func TestManyBucketsOrdering(t *testing.T) {
	cfg := DefaultConfig()
	b, out := collect(t, cfg)
	// Interleave two "routers", one consistently 30 s behind.
	for i := 0; i < 20; i++ {
		base := t0.Add(time.Duration(i) * time.Minute)
		b.Offer(rec(base))
		b.Offer(rec(base.Add(-30 * time.Second)))
	}
	b.Flush()
	if len(*out) == 0 {
		t.Fatal("no buckets")
	}
	total := 0
	for i, bk := range *out {
		total += len(bk.Records)
		if i > 0 && !(*out)[i-1].Start.Before(bk.Start) {
			t.Fatal("buckets out of order")
		}
	}
	if uint64(total) != b.Stats().Accepted {
		t.Errorf("emitted %d records, accepted %d", total, b.Stats().Accepted)
	}
}

// BenchmarkBinner times the two ways records enter the Binner on a steady
// in-order stream (1 000 records per one-minute bucket): Offer with the
// emitted buckets kept by the callee, as the benchmark's traced layer does,
// and OfferBatch in 512-record batches with every bucket recycled, as
// core.Server does.
func BenchmarkBinner(b *testing.B) {
	stream := make([]flow.Record, 1<<16)
	stamp := func(lap int) {
		for i := range stream {
			stream[i] = rec(t0.Add(time.Duration(lap*len(stream)+i) * 60 * time.Millisecond))
		}
	}
	b.Run("offer-kept", func(b *testing.B) {
		bin, _ := NewBinner(DefaultConfig(), func(Bucket) {})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(stream) == 0 {
				b.StopTimer()
				stamp(i / len(stream))
				b.StartTimer()
			}
			bin.Offer(stream[i%len(stream)])
		}
	})
	b.Run("batch512-recycled", func(b *testing.B) {
		var bin *Binner
		bin, _ = NewBinner(DefaultConfig(), func(bk Bucket) { bin.Recycle(bk.Records) })
		b.ReportAllocs()
		for i := 0; i < b.N; i += 512 {
			if i%len(stream) == 0 {
				b.StopTimer()
				stamp(i / len(stream))
				b.StartTimer()
			}
			lo := i % len(stream)
			bin.OfferBatch(stream[lo:min(lo+512, lo+b.N-i)])
		}
	})
}
