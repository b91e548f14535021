package core

import (
	"fmt"
	"sort"
	"time"

	"ipd/internal/governor"
)

// quarantineCycles is how many stage-2 cycles a range sits out after a
// contained panic. The range was reset to empty unclassified state, so the
// skip only delays its re-classification; it exists so a deterministic
// panic trigger (bad state rebuilt from the same traffic) cannot spin the
// containment path every cycle.
const quarantineCycles = 2

// contained runs one range's stage-2 processing under panic containment:
// a panic — from the processing itself or from the Config.CycleFault
// injection hook — resets and quarantines that range while the cycle moves
// on to the next. A panic raised by Config.OnEvent while *reporting* the
// quarantine is not contained again (it escapes; containment is one level
// deep by design).
func (e *Engine) contained(rs *rangeState, now time.Time, fn func()) {
	defer func() {
		if cause := recover(); cause != nil {
			e.quarantine(rs, now, cause)
		}
	}()
	if e.cfg.CycleFault != nil {
		e.cfg.CycleFault(rs.prefix)
	}
	fn()
}

// quarantine resets a range whose processing panicked — its state may be
// arbitrarily corrupt, so everything is rebuilt from fresh traffic — and
// marks it skipped for the next quarantineCycles cycles.
func (e *Engine) quarantine(rs *rangeState, now time.Time, cause any) {
	e.tel.panicsRecovered.Inc()
	e.tel.quarantines.Inc()
	e.unclassify(rs, now)
	rs.quarantinedUntil = e.cycleID + quarantineCycles
	if e.log != nil {
		e.log.Error("stage-2 panic contained", "prefix", rs.prefix.String(), "cause", fmt.Sprint(cause))
	}
	e.emit(Event{Kind: EventQuarantined, Prefix: rs.prefix.String(), At: now,
		Reason: Reason{Code: ReasonPanicRecovered},
		Detail: fmt.Sprint(cause)})
}

// govern is the end-of-cycle governor hook: it evaluates the budgets
// against the post-cycle populations, journals any state transition, and
// runs the emergency compaction pass while the governor is in emergency.
// Returns the number of forced joins applied (the govern span's count).
func (e *Engine) govern(now time.Time) int {
	prev := e.gov.State()
	next := e.gov.Evaluate(governor.Usage{Ranges: e.idx.len(), IPStates: e.ipCount})
	if next != prev {
		util := e.gov.Snapshot().Utilization
		reason := Reason{Code: ReasonOverBudget, Observed: util}
		switch {
		case next == governor.StateEmergency:
			reason.Threshold = governor.EmergencyFraction
		case next > prev:
			reason.Threshold = governor.DegradedFraction
		default:
			reason = Reason{Code: ReasonBudgetRecovered, Observed: util,
				Threshold: governor.RecoverFraction, Samples: governor.HoldCycles}
		}
		e.emit(Event{Kind: EventGovernor, At: now, Reason: reason, Detail: next.String()})
	}
	if next != governor.StateEmergency {
		return 0
	}
	// Escalation order (governor.State.Actions): with the sketch tier on,
	// "sketch" comes before "compact". Degrading far-from-threshold ranges
	// frees their per-IP state without discarding any classified work, so
	// compaction only runs if the budgets are still breached afterwards —
	// typically only when the range budget (which sketching cannot shrink)
	// is the one over target.
	e.sketchSweep(now)
	return e.compact(now)
}

// sketchSweep is the emergency pre-compaction pass: it degrades every
// unclassified exact range sitting below the sketch boundary (more than the
// exact margin under Q) until the governed populations are back under their
// recover targets. It runs ahead of the per-range hysteresis in
// updateStateMode because an emergency is exactly the "upgrade immediately"
// case; the walk is in address order, so the sweep is deterministic.
func (e *Engine) sketchSweep(now time.Time) {
	if e.sk == nil || !e.overRecoverTarget() {
		return
	}
	boundary := e.cfg.Q - ExactMargin
	for _, rs := range e.idx.all {
		if rs.classified || rs.sketched || len(rs.ips) == 0 {
			continue
		}
		_, share := rs.top()
		if share >= boundary {
			continue
		}
		if !e.overRecoverTarget() {
			return
		}
		e.degrade(rs, now, share)
	}
}

// compactCand is one force-joinable sibling pair: slots i and i+1 of the
// partition index.
type compactCand struct {
	i      int
	lo, hi *rangeState
	total  float64
}

// overRecoverTarget reports whether compaction still has work: a governed
// population above its budget's recover fraction. Compacting down to the
// recover target (not just under the emergency threshold) is what gives the
// hysteresis room to actually downgrade afterwards.
func (e *Engine) overRecoverTarget() bool {
	cfg := e.gov.Config()
	if cfg.MaxRanges > 0 && float64(e.idx.len()) > governor.RecoverFraction*float64(cfg.MaxRanges) {
		return true
	}
	if cfg.MaxIPStates > 0 && float64(e.ipCount) > governor.RecoverFraction*float64(cfg.MaxIPStates) {
		return true
	}
	return false
}

// compact is the emergency memory-reclamation pass: it force-joins sibling
// pairs — deepest subtrees first, lowest combined traffic first — into
// empty unclassified parents, discarding their counters and per-IP state
// (the aggressive-decay end of the paper's §3.2 cleanup spectrum), until
// every governed population is back under its recover target. Each forced
// join nets one range removed and is journaled as an EventCompacted, so a
// replayed run reconstructs the governed partition exactly.
func (e *Engine) compact(now time.Time) int {
	compacted := 0
	for e.overRecoverTarget() {
		cands := e.compactCandidates()
		if len(cands) == 0 {
			break
		}
		for _, c := range cands {
			if !e.overRecoverTarget() {
				break
			}
			e.forceJoin(c, now)
			compacted++
		}
		e.idx.compact()
	}
	return compacted
}

// compactCandidates collects every sibling pair currently present in the
// active set, ordered deepest-first then lowest-traffic-first (ties break
// on address order), so compaction sacrifices the most specific, least
// loaded state first. Pairs are disjoint within one sweep; pairs enabled by
// the sweep's own merges are picked up by the caller's next sweep.
func (e *Engine) compactCandidates() []compactCand {
	var cands []compactCand
	e.idx.siblingPairs(func(i int, lo, hi *rangeState) {
		cands = append(cands, compactCand{i: i, lo: lo, hi: hi, total: lo.total + hi.total})
	})
	sort.Slice(cands, func(i, j int) bool {
		ki, kj := cands[i].lo.key, cands[j].lo.key
		if ki.Bits() != kj.Bits() {
			return ki.Bits() > kj.Bits()
		}
		if cands[i].total != cands[j].total {
			return cands[i].total < cands[j].total
		}
		return ki.Less(kj)
	})
	return cands
}

// forceJoin merges one sibling pair into an empty unclassified parent,
// dropping both children's counters and per-IP state.
func (e *Engine) forceJoin(c compactCand, now time.Time) {
	e.ipCount -= len(c.lo.ips) + len(c.hi.ips)
	parent, _ := c.lo.key.Parent()
	m := newRangeState(parent)
	m.bornAt = now
	e.idx.join(c.i, m)
	e.tel.rangesCompacted.Inc()
	e.emit(Event{Kind: EventCompacted, Prefix: m.prefix.String(), At: now,
		Reason:   Reason{Code: ReasonForcedCompaction, Observed: c.total},
		Children: []string{c.lo.prefix.String(), c.hi.prefix.String()}})
}
