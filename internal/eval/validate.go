// Package eval implements the paper's validation methodology (§5.1) and the
// longitudinal analyses of §5.2-§5.6: LPM-based accuracy against ground
// truth flow data, the interface/router/PoP miss taxonomy, range stability
// tracking, matching/stable address-space comparison, IPD-vs-BGP prefix
// specificity, ingress/egress symmetry, and peering-violation detection.
//
// The package depends only on the engine output types, the topology, and
// the BGP substrate; the experiment drivers wire it to the synthetic
// scenario.
package eval

import (
	"net/netip"
	"sort"
	"time"

	"ipd/internal/core"
	"ipd/internal/flow"
	"ipd/internal/netaddr"
	"ipd/internal/topology"
)

// Predictor answers "where would IPD say this flow enters?" from a frozen
// LPM table, exactly as the §5.1 validation does: "we create a Longest
// Prefix Match lookup table from the IPD output ... and compare the actual
// ingress router and interface with the IPD output".
type Predictor struct {
	table *netaddr.Table[flow.Ingress]
	topo  *topology.T
}

// NewPredictor freezes the given lookup table. topo supplies bundle folding
// and the miss taxonomy; it must be the same topology the engine used.
func NewPredictor(table *netaddr.Table[flow.Ingress], topo *topology.T) *Predictor {
	return &Predictor{table: table, topo: topo}
}

// Table is the §5.1 validation device: a longest-prefix-match table of the
// ranges' ingresses: what Engine.LookupTable builds, from a list of ranges.
func Table(ranges []core.RangeInfo) *netaddr.Table[flow.Ingress] {
	ents := make([]netaddr.Entry[flow.Ingress], len(ranges))
	for i, ri := range ranges {
		ents[i] = netaddr.Entry[flow.Ingress]{Prefix: ri.Prefix, Val: ri.Ingress}
	}
	return netaddr.NewTable(ents)
}

// Predict returns the LPM prediction for src.
func (p *Predictor) Predict(src netip.Addr) (flow.Ingress, bool) {
	_, in, ok := p.table.Lookup(src)
	return in, ok
}

// Classify compares the prediction for rec against the record's actual
// ingress. Unmapped sources return (MissNone, false): the paper's accuracy
// ratio counts only flows that IPD had an opinion about ("ratio of
// correctly classified flows relative to all flows in a time bin" is also
// reported; Outcome exposes both).
func (p *Predictor) Classify(rec flow.Record) (topology.MissKind, bool) {
	pred, ok := p.Predict(rec.Src)
	if !ok {
		return topology.MissNone, false
	}
	return p.topo.ClassifyMiss(pred, rec.In), true
}

// Outcome is the per-time-bin accuracy bookkeeping behind Fig. 6.
type Outcome struct {
	// Bin is the start of the 5-minute validation bin.
	Bin time.Time
	// Flows is the number of ground-truth flows seen in the bin.
	Flows int
	// Mapped is how many of them had an LPM prediction.
	Mapped int
	// Correct is how many predictions matched (bundle-folded).
	Correct int
	// Misses counts the taxonomy of wrong predictions.
	Misses map[topology.MissKind]int
}

// Accuracy is Correct/Mapped (NaN-free: 0 when nothing was mapped).
func (o Outcome) Accuracy() float64 {
	if o.Mapped == 0 {
		return 0
	}
	return float64(o.Correct) / float64(o.Mapped)
}

// Coverage is Mapped/Flows.
func (o Outcome) Coverage() float64 {
	if o.Flows == 0 {
		return 0
	}
	return float64(o.Mapped) / float64(o.Flows)
}

// Accumulate folds one classified record into the outcome.
func (o *Outcome) Accumulate(kind topology.MissKind, mapped bool) {
	o.Flows++
	if !mapped {
		return
	}
	o.Mapped++
	if kind == topology.MissNone {
		o.Correct++
		return
	}
	if o.Misses == nil {
		o.Misses = make(map[topology.MissKind]int)
	}
	o.Misses[kind]++
}

// Merge adds other's counts into o (bins are the caller's business).
func (o *Outcome) Merge(other Outcome) {
	o.Flows += other.Flows
	o.Mapped += other.Mapped
	o.Correct += other.Correct
	for k, v := range other.Misses {
		if o.Misses == nil {
			o.Misses = make(map[topology.MissKind]int)
		}
		o.Misses[k] += v
	}
}

// MissRecord is one misclassified flow with its taxonomy, for the per-AS
// Fig. 7/8 breakdowns.
type MissRecord struct {
	Ts   time.Time
	Src  netip.Addr
	Kind topology.MissKind
}

// RangesByLength buckets mapped ranges by prefix length, weighted by count
// and by covered address space — the Fig. 9 / Fig. 11 aggregations.
type RangesByLength struct {
	// Count[bits] is the number of mapped ranges with that length.
	Count map[int]int
	// Space[bits] is the total covered address count (IPv4).
	Space map[int]float64
}

// AggregateRanges builds the per-length aggregation over IPv4 ranges.
func AggregateRanges(infos []core.RangeInfo) RangesByLength {
	out := RangesByLength{Count: make(map[int]int), Space: make(map[int]float64)}
	for _, ri := range infos {
		if !ri.Prefix.Addr().Is4() {
			continue
		}
		bits := ri.Prefix.Bits()
		out.Count[bits]++
		out.Space[bits] += float64(uint64(1) << uint(32-bits))
	}
	return out
}

// Lengths returns the sorted prefix lengths present.
func (r RangesByLength) Lengths() []int {
	var out []int
	for b := range r.Count {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// TotalCount sums the range counts.
func (r RangesByLength) TotalCount() int {
	n := 0
	for _, c := range r.Count {
		n += c
	}
	return n
}

// TotalSpace sums the covered address space.
func (r RangesByLength) TotalSpace() float64 {
	s := 0.0
	for _, c := range r.Space {
		s += c
	}
	return s
}
