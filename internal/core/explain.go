package core

import (
	"fmt"
	"net/netip"
	"sort"

	"ipd/internal/flow"
	"ipd/internal/netaddr"
)

// IngressShare is one ingress's contribution to a range's samples — the
// per-ingress vote that stage 2 compares against q.
type IngressShare struct {
	Ingress flow.Ingress `json:"ingress"`
	Count   float64      `json:"count"`
	Share   float64      `json:"share"`
}

// Explanation answers "why is this IP classified the way it is" from the
// engine's live state: the LPM descent through the active partition, the
// matched range, the per-ingress vote shares, and the threshold comparison
// the range currently sits at. The historical reason chain (the events that
// produced this state) lives in the journal; the introspect API joins the
// two.
type Explanation struct {
	// IP is the queried address (unmapped).
	IP netip.Addr `json:"ip"`
	// Path is the candidate-prefix chain the longest-prefix match descends
	// through, from the /0 root down to the matched range (the last
	// element). Interior entries are the ancestors the matched range was
	// carved out of by earlier splits; only the last one is active now.
	Path []netip.Prefix `json:"path"`
	// Range is the matched range's full state.
	Range RangeInfo `json:"range"`
	// Shares lists the per-ingress votes, largest first.
	Shares []IngressShare `json:"shares"`
	// Verdict restates the deciding comparison as a Reason: which threshold
	// the range currently clears or misses.
	Verdict Reason `json:"verdict"`
	// Coverage, when set, flags that the matched range's current ingress
	// (classified, or the top vote) rides on a degraded exporter feed
	// right now (Config.Coverage score below its floor): the verdict may
	// say more about the exporter than about the network.
	Coverage *Reason `json:"coverage,omitempty"`
	// Sketch, when set, flags that the matched range's evidence runs (or,
	// for a classified range, ran) through the fixed-memory sketch tier;
	// Observed/Threshold carry the sketch's ε/δ accuracy bound, so the
	// verdict's vote shares are approximate within that bound.
	Sketch *Reason `json:"sketch,omitempty"`
}

// VerdictString renders the verdict like the event log does.
func (ex Explanation) VerdictString() string {
	state := "unclassified"
	if ex.Range.Classified {
		state = fmt.Sprintf("classified to %s", ex.Range.Ingress)
	}
	return fmt.Sprintf("%s: %s (%s)", ex.Range.Prefix, state, ex.Verdict)
}

// Explain runs the stage-1 longest-prefix match for addr and reports the
// matched range with the threshold comparisons stage 2 would apply to it.
// ok is false when addr is invalid (the partition always covers valid
// addresses of both families).
func (e *Engine) Explain(addr netip.Addr) (Explanation, bool) {
	addr = addr.Unmap()
	k, ok := netaddr.KeyFromAddr(addr, addr.BitLen())
	if !ok {
		return Explanation{}, false
	}
	rs := e.idx.lookup(k)
	ex := Explanation{
		IP:    addr,
		Range: e.info(rs),
	}
	// The active ranges are a partition, so the only one containing addr is
	// the match itself; reconstruct the full candidate chain bit by bit.
	for b := 0; b <= rs.prefix.Bits(); b++ {
		ex.Path = append(ex.Path, netip.PrefixFrom(addr, b).Masked())
	}
	ex.Shares = make([]IngressShare, 0, len(rs.counters))
	for _, x := range rs.counters {
		s := IngressShare{Ingress: x.in, Count: x.n}
		if rs.total > 0 {
			s.Share = x.n / rs.total
		}
		ex.Shares = append(ex.Shares, s)
	}
	sort.Slice(ex.Shares, func(i, j int) bool {
		if ex.Shares[i].Count != ex.Shares[j].Count {
			return ex.Shares[i].Count > ex.Shares[j].Count
		}
		return ex.Shares[i].Ingress.String() < ex.Shares[j].Ingress.String()
	})
	ex.Verdict = e.verdict(rs)
	if rs.classified {
		ex.Coverage = e.coverageAnnotation(rs.ingress)
	} else if top, _ := rs.top(); rs.total > 0 {
		ex.Coverage = e.coverageAnnotation(top)
	}
	ex.Sketch = e.sketchAnnotation(rs.sketched || (rs.classified && rs.classifiedSketched))
	return ex, true
}

// verdict states the threshold comparison that holds the range in its
// current state.
func (e *Engine) verdict(rs *rangeState) Reason {
	ncidr := e.cfg.NCidr(rs.key.Bits(), rs.key.IsIPv6())
	if rs.classified {
		share := 1.0
		if rs.total > 0 {
			share = rs.counters.get(rs.ingress) / rs.total
		}
		return Reason{Code: ReasonPrevalentIngress, Observed: share,
			Threshold: e.cfg.Q, Samples: rs.total, MinSamples: ncidr}
	}
	_, share := rs.top()
	if rs.total < ncidr {
		// Not enough evidence yet: the n_cidr gate is the binding one.
		return Reason{Code: ReasonNone, Observed: share, Threshold: e.cfg.Q,
			Samples: rs.total, MinSamples: ncidr}
	}
	// Enough samples but no prevalent ingress: the range is mixed and will
	// split (or sit at cidr_max unclassified).
	return Reason{Code: ReasonMixedIngress, Observed: share, Threshold: e.cfg.Q,
		Samples: rs.total, MinSamples: ncidr}
}
