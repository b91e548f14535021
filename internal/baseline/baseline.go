// Package baseline implements the two comparison strategies the paper
// positions IPD against:
//
//   - BGPPredictor: the practitioner shortcut of §3.1/§5.5 — assume path
//     symmetry and predict that traffic from a prefix enters through the
//     router BGP selects as the egress toward that prefix. The paper's
//     conclusion ("BGP cannot be used to predict ingress points") becomes a
//     measurable accuracy gap here.
//
//   - StaticPredictor: a TIPSY-style static partitioning (§6: "TIPSY aims
//     to statistically model ingress traffic volumes and points for each
//     /24 prefix"): learn the dominant ingress per fixed-size prefix over a
//     training window and keep the mapping frozen. Against CDN-driven
//     ingress dynamics it decays, which is the paper's argument for IPD's
//     dynamic ranges.
//
// Both satisfy the same prediction interface as eval.Predictor so the
// experiment harness can score them with identical methodology.
package baseline

import (
	"fmt"
	"net/netip"

	"ipd/internal/bgp"
	"ipd/internal/flow"
	"ipd/internal/netaddr"
	"ipd/internal/topology"
)

// BGPPredictor predicts ingress points from a BGP table under the path
// symmetry assumption.
type BGPPredictor struct {
	table *bgp.Table
	topo  *topology.T
}

// NewBGPPredictor wraps a table dump. topo resolves router attachments so
// the predicted interface is the router's interface toward the origin AS
// when known (interface-level prediction is what IPD delivers, so the
// baseline gets the same chance).
func NewBGPPredictor(table *bgp.Table, topo *topology.T) *BGPPredictor {
	return &BGPPredictor{table: table, topo: topo}
}

// Predict returns the assumed ingress for src: the best-path next-hop
// router of the covering BGP prefix, on the interface attached to the
// prefix's origin AS if the router has one (first interface otherwise).
func (p *BGPPredictor) Predict(src netip.Addr) (flow.Ingress, bool) {
	route, ok := p.table.LookupAddr(src)
	if !ok {
		return flow.Ingress{}, false
	}
	router := route.Best
	// Prefer the interface on that router attached to the origin AS.
	var fallback *flow.Ingress
	for _, itf := range p.topo.Interfaces() {
		if itf.In.Router != router {
			continue
		}
		if itf.Neighbor == route.Origin {
			return itf.In, true
		}
		if fallback == nil {
			in := itf.In
			fallback = &in
		}
	}
	if fallback != nil {
		return *fallback, true
	}
	// Router without inventory interfaces: predict interface 1.
	return flow.Ingress{Router: router, Iface: 1}, true
}

// Classify scores one record like eval.Predictor.Classify.
func (p *BGPPredictor) Classify(rec flow.Record) (topology.MissKind, bool) {
	pred, ok := p.Predict(rec.Src)
	if !ok {
		return topology.MissNone, false
	}
	return p.topo.ClassifyMiss(pred, rec.In), true
}

// StaticPredictor is a frozen fixed-granularity ingress map. Every key has
// the same length, so a lookup is one probe with the masked source.
type StaticPredictor struct {
	bits  int
	topo  *topology.T
	table map[netaddr.Key]flow.Ingress
}

// StaticTrainer accumulates a training window and freezes it into a
// StaticPredictor.
type StaticTrainer struct {
	bits   int
	topo   *topology.T
	counts map[netaddr.Key]map[flow.Ingress]float64
}

// NewStaticTrainer returns a trainer aggregating at the given prefix
// length (TIPSY uses /24).
func NewStaticTrainer(bits int, topo *topology.T) (*StaticTrainer, error) {
	if bits < 1 || bits > 32 {
		return nil, fmt.Errorf("baseline: bits %d out of range [1,32]", bits)
	}
	return &StaticTrainer{
		bits:   bits,
		topo:   topo,
		counts: make(map[netaddr.Key]map[flow.Ingress]float64),
	}, nil
}

// Observe folds one training record (IPv4 only).
func (t *StaticTrainer) Observe(rec flow.Record) {
	src := rec.Src.Unmap()
	if !src.Is4() {
		return
	}
	p, ok := netaddr.Mask(src, t.bits)
	if !ok {
		return
	}
	k := netaddr.KeyOf(p)
	m := t.counts[k]
	if m == nil {
		m = make(map[flow.Ingress]float64)
		t.counts[k] = m
	}
	in := rec.In
	if t.topo != nil {
		in = t.topo.Logical(in)
	}
	m[in]++
}

// Freeze builds the static predictor: each trained prefix maps to its
// dominant training-window ingress.
func (t *StaticTrainer) Freeze() *StaticPredictor {
	table := make(map[netaddr.Key]flow.Ingress, len(t.counts))
	for k, m := range t.counts {
		var best flow.Ingress
		bestC := -1.0
		for in, c := range m {
			if c > bestC || (c == bestC && lessIngress(in, best)) {
				best, bestC = in, c
			}
		}
		table[k] = best
	}
	return &StaticPredictor{bits: t.bits, topo: t.topo, table: table}
}

// Prefixes returns the number of trained prefixes.
func (t *StaticTrainer) Prefixes() int { return len(t.counts) }

// Predict returns the frozen mapping for src.
func (p *StaticPredictor) Predict(src netip.Addr) (flow.Ingress, bool) {
	k, ok := netaddr.KeyFromAddr(src, p.bits)
	if !ok {
		return flow.Ingress{}, false
	}
	in, ok := p.table[k]
	return in, ok
}

// Classify scores one record like eval.Predictor.Classify.
func (p *StaticPredictor) Classify(rec flow.Record) (topology.MissKind, bool) {
	pred, ok := p.Predict(rec.Src)
	if !ok {
		return topology.MissNone, false
	}
	return p.topo.ClassifyMiss(pred, rec.In), true
}

// Len returns the number of frozen prefixes.
func (p *StaticPredictor) Len() int { return len(p.table) }

func lessIngress(a, b flow.Ingress) bool {
	if a.Router != b.Router {
		return a.Router < b.Router
	}
	return a.Iface < b.Iface
}
