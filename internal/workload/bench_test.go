package workload

import (
	"net/netip"
	"testing"
	"time"

	"ipd/internal/flow"
)

// BenchmarkObserveRecord isolates the profiler's amortized per-record cost
// at the default thinning rate (the engine-attached overhead gate lives in
// the root package's BenchmarkObserveWorkload).
func BenchmarkObserveRecord(b *testing.B) {
	p := New(Options{})
	recs := make([]flow.Record, 1024)
	for i := range recs {
		recs[i] = flow.Record{
			Ts:  time.Unix(int64(i), 0),
			Src: netip.AddrFrom4([4]byte{byte(i), byte(i >> 2), byte(i >> 4), 1}),
			In:  flow.Ingress{Router: flow.RouterID(i % 8), Iface: 1},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ObserveRecord(recs[i%len(recs)])
	}
}

// BenchmarkObserveBatch measures the drained-batch path at the default
// thinning rate, reported per record: only the admitted records are visited.
func BenchmarkObserveBatch(b *testing.B) {
	p := New(Options{})
	batch := batchTestStream(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ObserveBatch(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/record")
}
