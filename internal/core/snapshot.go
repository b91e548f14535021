package core

import (
	"fmt"
	"net/netip"
	"time"

	"ipd/internal/flow"
	"ipd/internal/netaddr"
)

// RangeInfo is the externally visible state of one IPD range — one row of
// the paper's raw output trace (Appendix B, Table 3).
type RangeInfo struct {
	// Prefix is the range.
	Prefix netip.Prefix
	// Classified reports whether a prevalent ingress is assigned.
	Classified bool
	// Ingress is the prevalent (classified) or current top ingress.
	Ingress flow.Ingress
	// Confidence is the paper's s_ingress: the top ingress's share.
	Confidence float64
	// Samples is s_ipcount: the total sample counter.
	Samples float64
	// NCidr is the minimum sample count for this range size.
	NCidr float64
	// LastSeen is the timestamp of the newest contributing sample.
	LastSeen time.Time
	// ClassifiedAt is when the prevalent ingress was assigned (zero when
	// unclassified).
	ClassifiedAt time.Time
	// Counters lists all ingress points and their sample counts (the
	// parenthesized list in Table 3).
	Counters map[flow.Ingress]float64
	// Bytes is the byte total for the flow/byte correlation study.
	Bytes float64
	// Sketched reports that the range currently counts per-source evidence
	// through the fixed-memory sketch tier (Config.Sketch). For classified
	// ranges it instead reports that the classification was decided on
	// sketched evidence.
	Sketched bool
}

// info converts internal state to the public view.
func (e *Engine) info(rs *rangeState) RangeInfo {
	in, share := rs.top()
	ri := RangeInfo{
		Prefix:       rs.prefix,
		Classified:   rs.classified,
		Ingress:      in,
		Confidence:   share,
		Samples:      rs.total,
		NCidr:        e.cfg.NCidr(rs.key.Bits(), rs.key.IsIPv6()),
		LastSeen:     rs.lastSeen,
		ClassifiedAt: rs.classifiedAt,
		Counters:     make(map[flow.Ingress]float64, len(rs.counters)),
		Bytes:        rs.byteTotal,
		Sketched:     rs.sketched || (rs.classified && rs.classifiedSketched),
	}
	if rs.classified {
		ri.Ingress = rs.ingress
		if rs.total > 0 {
			ri.Confidence = rs.counters.get(rs.ingress) / rs.total
		}
	}
	for _, x := range rs.counters {
		ri.Counters[x.in] = x.n
	}
	return ri
}

// Snapshot returns all active ranges sorted by (family, address, length).
func (e *Engine) Snapshot() []RangeInfo {
	out := make([]RangeInfo, 0, e.idx.len())
	for _, rs := range e.idx.all {
		out = append(out, e.info(rs))
	}
	return out
}

// DiffPartitions compares two snapshots on what the decision log determines
// — the partition, each range's classification and classified ingress, and
// its sketch provenance — and returns an error naming the first range that
// differs, or nil. Counters, confidence and timestamps are not compared: a
// journal replay rebuilds them only approximately (see Engine.ApplyEvent).
func DiffPartitions(want, got []RangeInfo) error {
	for i := 0; i < len(want) && i < len(got); i++ {
		w, g := want[i], got[i]
		if w.Prefix != g.Prefix || w.Classified != g.Classified || w.Sketched != g.Sketched ||
			(w.Classified && w.Ingress != g.Ingress) {
			return fmt.Errorf("core: range %d is %v classified=%t %v sketched=%t, want %v classified=%t %v sketched=%t",
				i, g.Prefix, g.Classified, g.Ingress, g.Sketched, w.Prefix, w.Classified, w.Ingress, w.Sketched)
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("core: partition has %d ranges, want %d", len(got), len(want))
	}
	return nil
}

// Mapped returns only the classified ranges — the stage-2 output that is
// "further filtered to include only prevalent ingress points" in deployment.
func (e *Engine) Mapped() []RangeInfo {
	out := []RangeInfo{}
	for _, rs := range e.idx.all {
		if rs.classified {
			out = append(out, e.info(rs))
		}
	}
	return out
}

// Range returns the active range covering addr, if any.
func (e *Engine) Range(addr netip.Addr) (RangeInfo, bool) {
	k, ok := netaddr.KeyFromAddr(addr, addr.Unmap().BitLen())
	if !ok {
		return RangeInfo{}, false
	}
	return e.info(e.idx.lookup(k)), true
}

// LookupTable builds the longest-prefix-match table from the currently
// classified ranges. This is exactly the validation device of §5.1: "we
// create a Longest Prefix Match (LPM) lookup table from the IPD output".
func (e *Engine) LookupTable() *netaddr.Table[flow.Ingress] {
	var ents []netaddr.Entry[flow.Ingress]
	for _, rs := range e.idx.all {
		if rs.classified {
			ents = append(ents, netaddr.Entry[flow.Ingress]{Prefix: rs.prefix, Val: rs.ingress})
		}
	}
	return netaddr.NewTable(ents)
}
