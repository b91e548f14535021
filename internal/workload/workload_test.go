package workload

import (
	"math"
	"net/netip"
	"sync"
	"testing"
	"time"

	"ipd/internal/flow"
)

func rec(addr netip.Addr, in flow.Ingress, ts time.Time) flow.Record {
	return flow.Record{Ts: ts, Src: addr, In: in}
}

var testIngress = flow.Ingress{Router: 1, Iface: 1}

// TestShardImbalanceUniform feeds a stream spread evenly over the top
// address bits: every candidate depth should come out balanced and the plan
// should recommend the deepest depth.
func TestShardImbalanceUniform(t *testing.T) {
	p := New(Options{SampleN: 1, MaxDepth: 6})
	ts := time.Unix(1000, 0)
	// 4096 records over all 64 depth-6 shards, evenly: top 6 bits of the
	// first byte cycle over all values.
	for i := 0; i < 4096; i++ {
		addr := netip.AddrFrom4([4]byte{byte((i % 64) << 2), byte(i >> 8), byte(i), 1})
		p.ObserveRecord(rec(addr, testIngress, ts))
	}
	st := p.TickCycle(1, ts)
	for d := 2; d <= 6; d++ {
		if imb := st.ImbalanceByDepth[d]; math.Abs(imb-1) > 0.01 {
			t.Errorf("uniform stream: depth %d imbalance = %v, want 1", d, imb)
		}
	}
	if !st.Plan.Satisfied || st.Plan.Depth != 6 || st.Plan.Shards != 64 {
		t.Errorf("uniform plan = %+v, want satisfied depth 6", st.Plan)
	}
}

// TestShardImbalanceSkewed feeds everything into one /16: the hot shard
// carries all the load, so the imbalance factor at depth d is exactly 2^d
// (max = total, mean = total/2^d) and no plan is satisfiable.
func TestShardImbalanceSkewed(t *testing.T) {
	p := New(Options{SampleN: 1, MaxDepth: 6})
	ts := time.Unix(1000, 0)
	for i := 0; i < 1000; i++ {
		p.ObserveRecord(rec(netip.AddrFrom4([4]byte{10, 1, byte(i), 1}), testIngress, ts))
	}
	st := p.TickCycle(1, ts)
	for d := 2; d <= 6; d++ {
		want := float64(int(1) << d)
		if imb := st.ImbalanceByDepth[d]; math.Abs(imb-want) > 0.01 {
			t.Errorf("skewed stream: depth %d imbalance = %v, want %v", d, imb, want)
		}
	}
	if st.Plan.Satisfied {
		t.Errorf("skewed plan = %+v, want unsatisfied", st.Plan)
	}
	if st.Plan.HotShardShare < 0.99 {
		t.Errorf("hot shard share = %v, want ~1", st.Plan.HotShardShare)
	}
}

// TestShardImbalanceEWMA checks that the per-depth factors smooth across
// cycles rather than tracking the last cycle alone.
func TestShardImbalanceEWMA(t *testing.T) {
	p := New(Options{SampleN: 1, MaxDepth: 4})
	ts := time.Unix(1000, 0)
	// Cycle 1: uniform over the 16 depth-4 shards.
	for i := 0; i < 1600; i++ {
		p.ObserveRecord(rec(netip.AddrFrom4([4]byte{byte((i % 16) << 4), 0, byte(i), 1}), testIngress, ts))
	}
	st1 := p.TickCycle(1, ts)
	// Cycle 2: fully skewed.
	for i := 0; i < 1600; i++ {
		p.ObserveRecord(rec(netip.AddrFrom4([4]byte{10, 1, byte(i), 1}), testIngress, ts))
	}
	st2 := p.TickCycle(2, ts)
	if imb := st2.ImbalanceByDepth[4]; imb <= st1.ImbalanceByDepth[4] || imb >= 16 {
		t.Errorf("EWMA imbalance after one skewed cycle = %v, want strictly between 1 and 16", imb)
	}
}

// TestHotShareAndDecay checks the cycle stats' top-aggregate share and that
// the epoch decay lets a stopped elephant fade as fresh traffic accumulates.
func TestHotShareAndDecay(t *testing.T) {
	p := New(Options{SampleN: 1, DecayEvery: 2, TopK: 16})
	ts := time.Unix(1000, 0)
	hot := netip.MustParseAddr("203.0.113.7")
	cycle := uint64(0)

	feed := func(hotFrac float64, n int) CycleStats {
		cycle++
		for i := 0; i < n; i++ {
			if float64(i%100) < hotFrac*100 {
				p.ObserveRecord(rec(hot, testIngress, ts))
			} else {
				p.ObserveRecord(rec(v4From24(i%512, byte(i)), testIngress, ts))
			}
		}
		return p.TickCycle(cycle, ts)
	}

	st := feed(0.5, 2000)
	if len(st.Top) == 0 || st.Top[0].Prefix.String() != "203.0.113.0/24" {
		t.Fatalf("hot cycle top = %+v, want 203.0.113.0/24 first", st.Top)
	}
	if st.Top[0].Share < 0.4 {
		t.Errorf("hot share = %v, want >= 0.4", st.Top[0].Share)
	}
	if st.WindowRecords != 2000 {
		t.Errorf("window records = %d, want 2000", st.WindowRecords)
	}

	// Elephant stops; within a few decay epochs its share must fall below a
	// clear threshold, and monotonically so.
	prev := st.Top[0].Share
	for i := 0; i < 8; i++ {
		st = feed(0, 2000)
		share := 0.0
		for _, a := range st.Top {
			if a.Prefix.String() == "203.0.113.0/24" {
				share = a.Share
			}
		}
		if share > prev+1e-9 {
			t.Errorf("decayed share grew: %v -> %v", prev, share)
		}
		prev = share
	}
	if prev > 0.1 {
		t.Errorf("share after 8 quiet cycles = %v, want < 0.1", prev)
	}
}

// TestBatchLocality checks distinct/run accounting on hand-built batches.
func TestBatchLocality(t *testing.T) {
	p := New(Options{SampleN: 1})
	ts := time.Unix(1000, 0)
	a, b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.1.1")
	// Batch of 8: runs a a a b b a a b -> 4 runs, 2 distinct aggregates.
	batch := []flow.Record{
		rec(a, testIngress, ts), rec(a, testIngress, ts), rec(a, testIngress, ts),
		rec(b, testIngress, ts), rec(b, testIngress, ts),
		rec(a, testIngress, ts), rec(a, testIngress, ts),
		rec(b, testIngress, ts),
	}
	p.ObserveBatch(batch)
	s := p.Snapshot()
	if s.Locality.Batches != 1 || s.Locality.Records != 8 {
		t.Fatalf("locality = %+v", s.Locality)
	}
	if s.Locality.DistinctPerBatch != 2 {
		t.Errorf("distinct per batch = %v, want 2", s.Locality.DistinctPerBatch)
	}
	if s.Locality.MeanRunLen != 2 {
		t.Errorf("mean run len = %v, want 2 (8 records / 4 runs)", s.Locality.MeanRunLen)
	}
	if want := 1 - 2.0/8.0; s.Locality.PredictedHitRate != want {
		t.Errorf("predicted hit rate = %v, want %v", s.Locality.PredictedHitRate, want)
	}
}

// TestSampleThinning checks the deterministic 1-in-N gate: profiled counts
// are exactly seen/N regardless of path mix.
func TestSampleThinning(t *testing.T) {
	p := New(Options{SampleN: 4})
	ts := time.Unix(1000, 0)
	for i := 0; i < 100; i++ {
		p.ObserveRecord(rec(v4From24(i, 1), testIngress, ts))
	}
	batch := make([]flow.Record, 100)
	for i := range batch {
		batch[i] = rec(v4From24(i, 2), testIngress, ts)
	}
	p.ObserveBatch(batch)
	s := p.Snapshot()
	if s.Records != 200 {
		t.Errorf("records = %d, want 200", s.Records)
	}
	if s.Profiled != 50 {
		t.Errorf("profiled = %d, want 50 (1 in 4)", s.Profiled)
	}
}

// TestLatency drives the latency pipeline with a fake clock and a fixed
// skew: ingest latency is measured against the corrected export time and
// commit latency folds at the cycle tick.
func TestLatency(t *testing.T) {
	var now time.Time
	base := time.Unix(10_000, 0)
	now = base
	p := New(Options{
		SampleN: 1,
		Now:     func() time.Time { return now },
		Skew:    func(flow.RouterID) float64 { return 2.0 }, // exporter 2s ahead
	})
	// Records exported at base-3s by the exporter clock; corrected export is
	// base-5s, so ingest latency is 5s. Only the latencyEvery-th is measured.
	for i := 0; i < latencyEvery; i++ {
		p.ObserveRecord(rec(netip.MustParseAddr("10.0.0.1"), testIngress, base.Add(-3*time.Second)))
	}
	now = base.Add(10 * time.Second) // cycle fires 10s later: commit latency 15s
	st := p.TickCycle(1, now)
	s := p.Snapshot()
	if s.IngestLatency.Count != 1 || s.CommitLatency.Count != 1 {
		t.Fatalf("latency counts = %d/%d, want 1/1", s.IngestLatency.Count, s.CommitLatency.Count)
	}
	// Log2 buckets are good to ~1.4x around the truth.
	if s.IngestLatency.P50 < 3 || s.IngestLatency.P50 > 8 {
		t.Errorf("ingest p50 = %v, want ~5s", s.IngestLatency.P50)
	}
	if s.CommitLatency.P50 < 10 || s.CommitLatency.P50 > 22 {
		t.Errorf("commit p50 = %v, want ~15s", s.CommitLatency.P50)
	}
	if st.CommitP50 != s.CommitLatency.P50 {
		t.Errorf("cycle stats commit p50 %v != snapshot %v", st.CommitP50, s.CommitLatency.P50)
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	for i := 0; i < 90; i++ {
		h.observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(time.Second)
	}
	if p50 := h.quantile(0.50); p50 > 0.01 {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	if p99 := h.quantile(0.99); p99 < 0.1 {
		t.Errorf("p99 = %v, want ~1s", p99)
	}
	if h.stats().Max != 1 {
		t.Errorf("max = %v, want 1s", h.stats().Max)
	}
}

// TestPendingBounded checks the commit-latency buffer never grows past its
// cap no matter how many records arrive between cycles.
func TestPendingBounded(t *testing.T) {
	p := New(Options{SampleN: 1})
	ts := time.Now()
	for i := 0; i < 10*pendingCap*latencyEvery; i++ {
		p.ObserveRecord(rec(v4From24(i%64, 1), testIngress, ts))
	}
	p.mu.Lock()
	n := len(p.pending)
	p.mu.Unlock()
	if n > pendingCap {
		t.Errorf("pending = %d, want <= %d", n, pendingCap)
	}
}

// TestConcurrent exercises the profiler from many goroutines so the race
// detector can audit the locking: per-record feeds, batch feeds, cycle
// ticks, and snapshots all at once.
func TestConcurrent(t *testing.T) {
	p := New(Options{SampleN: 2, MaxDepth: 4})
	ts := time.Unix(1000, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				p.ObserveRecord(rec(v4From24((g*100+i)%1024, byte(i)), testIngress, ts))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([]flow.Record, 128)
		for i := range batch {
			batch[i] = rec(v4From24(i, 3), testIngress, ts)
		}
		for i := 0; i < 100; i++ {
			p.ObserveBatch(batch)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			p.TickCycle(uint64(i+1), ts)
			_ = p.Snapshot()
		}
	}()
	wg.Wait()
	s := p.Snapshot()
	if s.Records != 4*5000+100*128 {
		t.Errorf("records = %d, want %d", s.Records, 4*5000+100*128)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.TopK != 32 || o.MaxDepth != 10 || o.SampleN != 16 || o.DecayEvery != 16 {
		t.Errorf("defaults = %+v", o)
	}
	if o := (Options{MaxDepth: 99}).withDefaults(); o.MaxDepth != 10 {
		t.Errorf("MaxDepth clamp high = %d, want 10", o.MaxDepth)
	}
	if o := (Options{MaxDepth: 1}).withDefaults(); o.MaxDepth != 2 {
		t.Errorf("MaxDepth clamp low = %d, want 2", o.MaxDepth)
	}
	if o := (Options{TopK: 1}).withDefaults(); o.TopK != 2 {
		t.Errorf("TopK clamp = %d, want 2", o.TopK)
	}
}
