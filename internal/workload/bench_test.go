package workload

import "testing"

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
