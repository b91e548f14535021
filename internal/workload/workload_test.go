package workload

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"ipd/internal/flow"
)

func rec(addr netip.Addr, in flow.Ingress, ts time.Time) flow.Record {
	return flow.Record{Ts: ts, Src: addr, In: in}
}

var testIngress = flow.Ingress{Router: 1, Iface: 1}

// TestShardImbalanceUniform feeds a stream spread evenly over 64 /24s: no
// aggregate stands out, so none carries more than twice its fair 1/64 share.
func TestShardImbalanceUniform(t *testing.T) {
	p := New(Options{SampleN: 1, TopK: 64})
	ts := time.Unix(1000, 0)
	for i := 0; i < 4096; i++ {
		p.ObserveRecord(rec(v4From24(i%64, byte(i)), testIngress, ts))
	}
	st := p.TickCycle(1)
	if len(st.Top) == 0 {
		t.Fatal("uniform stream: no top aggregates")
	}
	for _, a := range st.Top {
		if a.Share > 2.0/64 {
			t.Errorf("uniform stream: %v share = %v, want <= 2/64", a.Prefix, a.Share)
		}
	}
}

// TestShardImbalanceSkewed feeds everything into one /24: it is the top
// aggregate at share 1, attributed entirely to the one ingress it entered
// through.
func TestShardImbalanceSkewed(t *testing.T) {
	p := New(Options{SampleN: 1})
	ts := time.Unix(1000, 0)
	for i := 0; i < 1000; i++ {
		p.ObserveRecord(rec(netip.AddrFrom4([4]byte{10, 1, 2, byte(i)}), testIngress, ts))
	}
	st := p.TickCycle(1)
	if len(st.Top) != 1 || st.Top[0].Prefix.String() != "10.1.2.0/24" {
		t.Fatalf("skewed stream top = %+v, want only 10.1.2.0/24", st.Top)
	}
	if st.Top[0].Share != 1 || st.Top[0].Ingress != testIngress {
		t.Errorf("skewed top = %+v, want share 1 through %v", st.Top[0], testIngress)
	}
	in := p.Snapshot().TopAggregates[0].IngressShares
	if len(in) != 1 || in[0].Ingress != testIngress.String() || in[0].Share != 1 {
		t.Errorf("ingress attribution = %+v, want all of it on %v", in, testIngress)
	}
}

// TestShardImbalanceEWMA checks that the top share moves with the decayed
// mass rather than the last cycle alone: one skewed cycle after a uniform
// one lifts the top share strictly between the uniform share and 1.
func TestShardImbalanceEWMA(t *testing.T) {
	p := New(Options{SampleN: 1, TopK: 64})
	ts := time.Unix(1000, 0)
	// Cycle 1: uniform over 16 /24s.
	for i := 0; i < 1600; i++ {
		p.ObserveRecord(rec(v4From24(i%16, byte(i)), testIngress, ts))
	}
	uniform := p.TickCycle(1).Top[0].Share
	// Cycle 2: fully skewed onto a /24 outside the uniform set.
	for i := 0; i < 1600; i++ {
		p.ObserveRecord(rec(netip.AddrFrom4([4]byte{10, 200, 1, byte(i)}), testIngress, ts))
	}
	st := p.TickCycle(2)
	if st.Top[0].Prefix.String() != "10.200.1.0/24" {
		t.Fatalf("top after skewed cycle = %v, want 10.200.1.0/24", st.Top[0].Prefix)
	}
	if share := st.Top[0].Share; share <= uniform || share >= 1 {
		t.Errorf("top share after one skewed cycle = %v, want strictly between %v and 1", share, uniform)
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
		return p.TickCycle(cycle)
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

// TestBatchLocality checks that ObserveBatch, which visits only the
// records its thinning gate admits, profiles exactly the records
// ObserveRecord would: one stream fed both ways, with the same cycle ticks,
// gives equal cycle stats and snapshots for every thinning rate and batch
// size, including batches that hold no admitted record.
func TestBatchLocality(t *testing.T) {
	now := time.Unix(50_000, 0)
	clock := func() time.Time { return now }
	stream := batchTestStream(3000)
	for _, n := range []int{1, 4, 5, 16} {
		for _, size := range []int{1, 3, n - 1, n, 2*n + 1, 512} {
			if size == 0 {
				continue
			}
			byRec := New(Options{SampleN: n, DecayEvery: 2, Now: clock})
			byBatch := New(Options{SampleN: n, DecayEvery: 2, Now: clock})
			cycle := uint64(0)
			for off, chunk := 0, 0; off < len(stream); off, chunk = off+size, chunk+1 {
				batch := stream[off:min(off+size, len(stream))]
				for _, r := range batch {
					byRec.ObserveRecord(r)
				}
				byBatch.ObserveBatch(batch)
				if chunk%7 == 6 {
					cycle++
					if a, b := byRec.TickCycle(cycle), byBatch.TickCycle(cycle); !reflect.DeepEqual(a, b) {
						t.Fatalf("SampleN %d, batch %d, cycle %d: stats differ\nrecord: %+v\nbatch:  %+v", n, size, cycle, a, b)
					}
				}
			}
			a, b := byRec.Snapshot(), byBatch.Snapshot()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("SampleN %d, batch %d: snapshots differ\nrecord: %+v\nbatch:  %+v", n, size, a, b)
			}
			if want := uint64(len(stream) / n); a.Profiled > want || a.Profiled < want*9/10 {
				t.Errorf("SampleN %d, batch %d: profiled %d, want about %d", n, size, a.Profiled, want)
			}
		}
	}
}

// batchTestStream is a deterministic mixed stream: Zipf-skewed IPv4 /24s
// over several ingresses, some IPv6 sources, and a few records without a
// source address (which the gate admits but the summary skips).
func batchTestStream(n int) []flow.Record {
	rng := splitmix(42)
	cum := zipfCum(200, 1.1)
	base := time.Unix(49_000, 0)
	out := make([]flow.Record, n)
	for i := range out {
		r := flow.Record{
			Ts: base.Add(time.Duration(i) * time.Millisecond),
			In: flow.Ingress{Router: flow.RouterID(1 + rng.next()%3), Iface: 1},
		}
		switch {
		case i%97 == 0:
			// no source address
		case i%11 == 0:
			r.Src = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i % 5), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, byte(i)})
		default:
			r.Src = v4From24(zipfPick(&rng, cum), byte(i))
		}
		out[i] = r
	}
	return out
}

// TestObserveBatchAllocs guards the batch path's zero-allocation promise: a
// warmed profiler allocates nothing per drained batch, at the default
// thinning rate and at full profiling.
func TestObserveBatchAllocs(t *testing.T) {
	stream := batchTestStream(512)
	for _, n := range []int{16, 1} {
		p := New(Options{SampleN: n})
		for i := 0; i < 4*pendingCap; i++ {
			p.ObserveBatch(stream)
		}
		if allocs := testing.AllocsPerRun(100, func() { p.ObserveBatch(stream) }); allocs != 0 {
			t.Errorf("SampleN %d: %v allocs per 512-record ObserveBatch, want 0", n, allocs)
		}
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
	st := p.TickCycle(1)
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
	p := New(Options{SampleN: 2})
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
			p.TickCycle(uint64(i + 1))
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
	if o.TopK != 32 || o.SampleN != 16 || o.DecayEvery != 16 {
		t.Errorf("defaults = %+v", o)
	}
	if o := (Options{TopK: 1}).withDefaults(); o.TopK != 2 {
		t.Errorf("TopK clamp = %d, want 2", o.TopK)
	}
}
