package timeline

import (
	"math"
	"sort"

	"ipd/internal/core"
	"ipd/internal/exphealth"
	"ipd/internal/flow"
	"ipd/internal/workload"
)

// Alert thresholds. Every alert runs through one hysteresis machine: a raise
// threshold, a lower clear threshold, and a hold of consecutive calm ticks
// before the clear, so boundary noise cannot make an alert itself flap.
const (
	// A prefix with flapRaise classification transitions within the last
	// flapWindow cycles raises AlertFlap; it clears after flapHold
	// consecutive evaluations with at most flapClear transitions in the
	// window.
	flapWindow = 30
	flapRaise  = 4
	flapClear  = 1
	flapHold   = 5

	// driftAlpha is the EWMA smoothing factor for per-ingress traffic share
	// (one cycle contributes 5%). A share falling at least driftDelta below
	// its EWMA raises AlertDrift (a quarter of total traffic left that
	// ingress); it clears after driftHold consecutive cycles with the
	// deficit at most driftClear. Only the collapse direction alerts: shares
	// are relative, so when one ingress's traffic vanishes every other share
	// inflates mechanically — alerting the complement would double-report a
	// single episode. Ingresses whose share and EWMA are both below
	// driftMinShare are ignored: a 1%-of-traffic ingress vanishing is churn,
	// not drift. A newly seen ingress initializes its EWMA to the first
	// observed share, so appearing is never itself drift.
	driftAlpha    = 0.05
	driftDelta    = 0.25
	driftClear    = 0.125
	driftHold     = 5
	driftMinShare = 0.02

	// An exporter feed whose smoothed sequence-gap loss fraction reaches
	// exporterLossRaise raises AlertExporterLoss; it clears after
	// exporterHold consecutive cycle ticks at or below exporterLossClear.
	// The same hold governs the stale and clock-skew alerts: staleness
	// clears after exporterHold ticks of renewed activity, skew after
	// exporterHold ticks within half the skew limit. Raise conditions
	// (staleness, skew excess) come pre-computed from the exphealth tracker,
	// which owns the StaleAfter/SkewMax thresholds.
	exporterLossRaise = 0.05
	exporterLossClear = 0.01
	exporterHold      = 3

	// One /24 (IPv6 /48) aggregate holding hotRaiseShare of the workload
	// profiler's decayed record mass raises AlertHotPrefix; it clears after
	// hotHold consecutive cycles at or below hotClearShare. Cycles whose
	// profiled mass is below hotMinRecords decide nothing: shares over a
	// near-empty window are noise. The machine consumes only the profiler's
	// deterministic cycle stats, never its wall-clock latency fields, so
	// hot-prefix alerts replay byte-identically.
	hotRaiseShare = 0.25
	hotClearShare = 0.1
	hotHold       = 3
	hotMinRecords = 256

	// AlertSketchShare raises when sketchRaiseShare of the unclassified
	// ranges run in the fixed-memory sketch tier (half the open questions
	// ride on approximate evidence); it clears after sketchHold consecutive
	// cycles at or below sketchClearShare. Cycles with fewer than
	// sketchMinRanges unclassified ranges decide nothing: a share over a
	// handful of ranges is noise. The machine consumes only CycleSample
	// fields, so the alert replays byte-identically.
	sketchRaiseShare = 0.5
	sketchClearShare = 0.25
	sketchHold       = 3
	sketchMinRanges  = 8

	// maxTracked caps the per-subject tracking maps. At the cap the
	// longest-quiet flap and birth entries are evicted deterministically
	// (oldest activity, then prefix order), so two identical runs evict
	// identically; exporter feeds and hot prefixes past it go untracked.
	maxTracked = 4096
)

// convergenceBuckets are the upper bounds of the creation-to-first-
// classification histogram, in cycles; a final +Inf bucket is implicit.
var convergenceBuckets = [...]float64{1, 2, 3, 5, 8, 13, 21, 34, 55}

// hysteresis is one raise/clear alert machine. It raises on a tick whose
// raise condition holds and clears after hold consecutive calm ticks; a
// tick that is not calm restarts the count, and the raising tick never
// counts toward the clear.
type hysteresis struct {
	alerted bool
	calm    int
}

// step advances the machine by one tick and reports whether it raised or
// cleared.
func (h *hysteresis) step(raise, calm bool, hold int) (raised, cleared bool) {
	switch {
	case !h.alerted:
		if raise {
			*h = hysteresis{alerted: true}
		}
		return raise, false
	case !calm:
		h.calm = 0
		return false, false
	case h.calm+1 < hold:
		h.calm++
		return false, false
	}
	*h = hysteresis{}
	return false, true
}

// emit appends al when a step raised or cleared, stamped with the direction
// and the threshold of the side that fired.
func emit(alerts []core.Alert, raised, cleared bool, al core.Alert, raiseAt, clearAt float64) []core.Alert {
	if !raised && !cleared {
		return alerts
	}
	al.Raise = raised
	al.Reason.Threshold = clearAt
	if raised {
		al.Reason.Threshold = raiseAt
	}
	return append(alerts, al)
}

// flapState tracks one prefix's classification transitions. transitions
// holds the cycles of the most recent transitions (bounded by the raise
// threshold plus slack — counting above the threshold adds nothing).
type flapState struct {
	hysteresis
	transitions []uint64
	lastIngress flow.Ingress
	hasIngress  bool
	lastTouch   uint64 // cycle of the last transition (eviction key)
}

// driftState tracks one ingress's share EWMA.
type driftState struct {
	hysteresis
	ewma float64
}

// hotState is one aggregate prefix's hot-prefix alert machine.
type hotState struct {
	hysteresis
	ingress flow.Ingress
}

// exporterState is one feed's three alert machines.
type exporterState struct {
	loss, stale, skew hysteresis
}

// analyzer runs the three analytics. It is not safe for concurrent use; the
// Collector serializes access under its own lock. Everything the analyzer
// consumes is virtual-time and everything it returns is deterministically
// ordered, so the alert events it produces replay byte-identically.
type analyzer struct {
	flaps     map[string]*flapState
	drifts    map[flow.Ingress]*driftState
	births    map[string]uint64 // prefix -> creation cycle (convergence)
	exporters map[string]*exporterState
	hot       map[string]*hotState

	// sketch is the sketch-share machine: the alert is about the pipeline
	// as a whole, so it has no subject.
	sketch hysteresis

	// convergence histogram: counts[i] observes delta <= buckets[i];
	// the last slot is the +Inf overflow. onConv, when set, mirrors each
	// observation into the registry histogram.
	convCounts [len(convergenceBuckets) + 1]uint64
	convTotal  uint64
	convSum    float64
	onConv     func(float64)

	// transitionsThisCycle counts classification transitions seen since the
	// last evaluate, for the "transitions" series.
	transitionsThisCycle int
}

func newAnalyzer() *analyzer {
	return &analyzer{
		flaps:     make(map[string]*flapState),
		drifts:    make(map[flow.Ingress]*driftState),
		births:    make(map[string]uint64),
		exporters: make(map[string]*exporterState),
		hot:       make(map[string]*hotState),
	}
}

// observeEvent feeds one lifecycle event into the flap and convergence
// tracking. Called from the Config.OnEvent chain, so it sees every decision
// the engine journals, in order.
func (a *analyzer) observeEvent(ev core.Event) {
	switch ev.Kind {
	case core.EventCreated:
		a.recordBirth(ev.Prefix, ev.Cycle)
	case core.EventSplit:
		// The parent leaves; its children start their convergence clocks.
		delete(a.births, ev.Prefix)
		a.dropFlap(ev.Prefix)
		for _, c := range ev.Children {
			a.recordBirth(c, ev.Cycle)
		}
	case core.EventJoined, core.EventDropped, core.EventCompacted:
		// The children leave the partition; a joined parent is born
		// classified, so no convergence clock starts for it.
		for _, c := range ev.Children {
			delete(a.births, c)
			a.dropFlap(c)
		}
		delete(a.births, ev.Prefix)
	case core.EventClassified:
		if born, ok := a.births[ev.Prefix]; ok {
			delta := float64(ev.Cycle - born)
			a.observeConvergence(delta)
			delete(a.births, ev.Prefix)
		}
		fs := a.flap(ev.Prefix)
		if fs.hasIngress && fs.lastIngress != ev.Ingress {
			a.noteTransition(fs, ev.Cycle)
		}
		fs.lastIngress = ev.Ingress
		fs.hasIngress = true
	case core.EventInvalidated:
		// Losing the prevalent ingress is the core flap signal: the range
		// oscillates between classified and not, or between ingresses.
		fs := a.flap(ev.Prefix)
		a.noteTransition(fs, ev.Cycle)
	case core.EventExpired:
		// Idle decay is not a flap — the range went quiet, it did not
		// contradict itself — but the next classification starts fresh.
		if fs, ok := a.flaps[ev.Prefix]; ok {
			fs.hasIngress = false
		}
	}
}

func (a *analyzer) recordBirth(prefix string, cycle uint64) {
	if len(a.births) >= maxTracked {
		a.evictBirth()
	}
	a.births[prefix] = cycle
}

// evictBirth removes the oldest (then lexically smallest) birth record:
// deterministic, so identical runs track identical sets.
func (a *analyzer) evictBirth() {
	var (
		victim string
		oldest uint64
		found  bool
	)
	for p, c := range a.births {
		if !found || c < oldest || (c == oldest && p < victim) {
			victim, oldest, found = p, c, true
		}
	}
	if found {
		delete(a.births, victim)
	}
}

func (a *analyzer) flap(prefix string) *flapState {
	fs := a.flaps[prefix]
	if fs == nil {
		if len(a.flaps) >= maxTracked {
			a.evictFlap()
		}
		fs = &flapState{}
		a.flaps[prefix] = fs
	}
	return fs
}

// evictFlap removes the longest-quiet non-alerted entry (then lexically
// smallest prefix). Alerted entries are never evicted — an active alert must
// survive until it clears.
func (a *analyzer) evictFlap() {
	var (
		victim string
		oldest uint64
		found  bool
	)
	for p, fs := range a.flaps {
		if fs.alerted {
			continue
		}
		if !found || fs.lastTouch < oldest || (fs.lastTouch == oldest && p < victim) {
			victim, oldest, found = p, fs.lastTouch, true
		}
	}
	if found {
		delete(a.flaps, victim)
	}
}

func (a *analyzer) dropFlap(prefix string) {
	if fs, ok := a.flaps[prefix]; ok && !fs.alerted {
		delete(a.flaps, prefix)
	}
}

func (a *analyzer) noteTransition(fs *flapState, cycle uint64) {
	a.transitionsThisCycle++
	fs.lastTouch = cycle
	// Keep at most flapRaise+flapClear+1 recent transition cycles: counting
	// further above the raise threshold never changes a decision.
	const keep = flapRaise + flapClear + 1
	if len(fs.transitions) >= keep {
		copy(fs.transitions, fs.transitions[1:])
		fs.transitions = fs.transitions[:keep-1]
	}
	fs.transitions = append(fs.transitions, cycle)
}

// inWindow counts transitions with cycle > cur-flapWindow.
func (fs *flapState) inWindow(cur uint64) int {
	floor := uint64(0)
	if cur > flapWindow {
		floor = cur - flapWindow
	}
	n := 0
	for _, c := range fs.transitions {
		if c > floor {
			n++
		}
	}
	return n
}

// observeConvergence records one creation-to-classification delta.
func (a *analyzer) observeConvergence(delta float64) {
	a.convTotal++
	a.convSum += delta
	if a.onConv != nil {
		a.onConv(delta)
	}
	for i, ub := range convergenceBuckets {
		if delta <= ub {
			a.convCounts[i]++
			return
		}
	}
	a.convCounts[len(a.convCounts)-1]++
}

// takeTransitions returns and resets the per-cycle transition count.
func (a *analyzer) takeTransitions() int {
	n := a.transitionsThisCycle
	a.transitionsThisCycle = 0
	return n
}

// evaluate runs the per-cycle alert decisions against the sample's
// per-ingress shares, returning the alerts raised and cleared this cycle
// sorted (kind, subject) so the engine journals them in deterministic order.
func (a *analyzer) evaluate(s core.CycleSample) []core.Alert {
	var alerts []core.Alert
	alerts = a.evaluateFlaps(s.Cycle, alerts)
	alerts = a.evaluateDrift(s, alerts)
	alerts = a.evaluateSketch(s, alerts)
	return alerts
}

// sortBySubject orders one machine family's alerts by subject: the prefix
// for flap alerts, the ingress for drift alerts (whose prefix is empty).
func sortBySubject(alerts []core.Alert) {
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].Prefix != alerts[j].Prefix {
			return alerts[i].Prefix < alerts[j].Prefix
		}
		return lessIngress(alerts[i].Ingress, alerts[j].Ingress)
	})
}

// evaluateSketch runs the sketch-share alert decision over one cycle sample:
// the fraction of unclassified ranges in the fixed-memory tier. A run without
// Config.Sketch reports SketchedRanges 0 every cycle, so the machine stays
// silent for free.
func (a *analyzer) evaluateSketch(s core.CycleSample, alerts []core.Alert) []core.Alert {
	unclassified := s.Ranges - s.Classified
	if unclassified < sketchMinRanges {
		// Too few open questions to judge a share; hold the machine.
		return alerts
	}
	share := float64(s.SketchedRanges) / float64(unclassified)
	raised, cleared := a.sketch.step(share >= sketchRaiseShare, share <= sketchClearShare, sketchHold)
	return emit(alerts, raised, cleared, core.Alert{Kind: core.AlertSketchShare,
		Reason: core.Reason{Code: core.ReasonSketched, Observed: share,
			Samples: float64(unclassified), MinSamples: sketchMinRanges}},
		sketchRaiseShare, sketchClearShare)
}

func (a *analyzer) evaluateFlaps(cycle uint64, alerts []core.Alert) []core.Alert {
	mark := len(alerts)
	for p, fs := range a.flaps {
		n := fs.inWindow(cycle)
		// Every classified range is tracked here, so build an alert only on
		// a transition.
		if raised, cleared := fs.step(n >= flapRaise, n <= flapClear, flapHold); raised || cleared {
			alerts = emit(alerts, raised, cleared, core.Alert{Kind: core.AlertFlap, Prefix: p,
				Ingress: fs.lastIngress, Reason: core.Reason{Code: core.ReasonFlapRate,
					Observed: float64(n), Samples: flapWindow}},
				flapRaise, flapClear)
		}
	}
	sortBySubject(alerts[mark:])
	return alerts
}

func (a *analyzer) evaluateDrift(s core.CycleSample, alerts []core.Alert) []core.Alert {
	// Shares for ingresses present this cycle; tracked ingresses absent from
	// the sample contribute share 0 (their traffic vanished — the strongest
	// drift there is).
	seen := make(map[flow.Ingress]float64, len(s.Ingress))
	for _, st := range s.Ingress {
		seen[st.Ingress] = st.Share
		// New ingresses enter tracking with EWMA = first share (appearing
		// is not drift).
		if _, ok := a.drifts[st.Ingress]; !ok {
			a.drifts[st.Ingress] = &driftState{ewma: st.Share}
		}
	}

	mark := len(alerts)
	for in, ds := range a.drifts {
		share := seen[in]
		// Signed deficit: positive when the share fell below its baseline.
		// A share above baseline (dev < 0) never raises and always counts as
		// calm for the clear hold. The raise compares this cycle's share
		// against the pre-shift baseline: the EWMA moves after the decision.
		dev := ds.ewma - share
		significant := share >= driftMinShare || ds.ewma >= driftMinShare
		raised, cleared := ds.step(significant && dev >= driftDelta, dev <= driftClear, driftHold)
		alerts = emit(alerts, raised, cleared, core.Alert{Kind: core.AlertDrift, Ingress: in,
			Reason: core.Reason{Code: core.ReasonShareDrift, Observed: dev, Samples: share}},
			driftDelta, driftClear)
		ds.ewma += driftAlpha * (share - ds.ewma)
	}
	sortBySubject(alerts[mark:])
	return alerts
}

// evaluateExporters runs the exporter-health alert decisions over one
// cycle tick's feed stats. stats arrive sorted by feed key from
// exphealth.Tracker.Tick and are iterated in that order (each feed's
// machines decide in the fixed order loss, stale, skew), so the emitted
// alerts — and therefore the journal — are deterministic. Subjects are
// feed keys carried in Alert.Prefix, with the router in Alert.Ingress.
func (a *analyzer) evaluateExporters(stats []exphealth.CycleStat, alerts []core.Alert) []core.Alert {
	for _, st := range stats {
		es := a.exporters[st.Key]
		if es == nil {
			if len(a.exporters) >= maxTracked {
				continue // bounded mirror; untracked feeds never alert
			}
			es = &exporterState{}
			a.exporters[st.Key] = es
		}
		feed := func(kind core.AlertKind, code core.ReasonCode, observed float64) core.Alert {
			return core.Alert{Kind: kind, Prefix: st.Key, Ingress: flow.Ingress{Router: st.Router},
				Reason: core.Reason{Code: code, Observed: observed}}
		}

		raised, cleared := es.loss.step(st.LossFrac >= exporterLossRaise, st.LossFrac <= exporterLossClear, exporterHold)
		alerts = emit(alerts, raised, cleared,
			feed(core.AlertExporterLoss, core.ReasonExporterLoss, st.LossFrac),
			exporterLossRaise, exporterLossClear)

		raised, cleared = es.stale.step(st.Stale, !st.Stale, exporterHold)
		alerts = emit(alerts, raised, cleared,
			feed(core.AlertExporterStale, core.ReasonExporterStale, st.SilentForSeconds),
			st.StaleAfterSeconds, st.StaleAfterSeconds)

		skewCalm := math.Abs(st.SkewSeconds) <= st.SkewMaxSeconds/2
		raised, cleared = es.skew.step(st.SkewExceeded, skewCalm, exporterHold)
		alerts = emit(alerts, raised, cleared,
			feed(core.AlertClockSkew, core.ReasonClockSkew, st.SkewSeconds),
			st.SkewMaxSeconds, st.SkewMaxSeconds/2)
	}
	return alerts
}

// evaluateWorkload runs the hot-prefix alert decisions over one cycle's
// workload profiler stats. Only the deterministic fields of the cycle stats
// are consulted (top-aggregate shares, decayed mass) — never the wall-clock
// latency quantiles — so the emitted alerts journal and replay
// byte-identically. Subjects are aggregate prefixes carried in Alert.Prefix
// with the aggregate's dominant ingress in Alert.Ingress; the subject of an
// active alert is pinned at raise time, so the clear names the same prefix
// even if a different aggregate has taken the top slot since.
func (a *analyzer) evaluateWorkload(ws workload.CycleStats, alerts []core.Alert) []core.Alert {
	if ws.Mass < hotMinRecords {
		// Too little profiled traffic to judge shares; hold all machines.
		return alerts
	}
	shares := make(map[string]workload.HotAggregate, len(ws.Top))
	for _, h := range ws.Top {
		shares[h.Prefix.String()] = h
	}

	// Subjects decided this cycle: aggregates hot enough to raise plus every
	// currently alerted prefix, iterated in sorted order for a deterministic
	// journal.
	var subjects []string
	for p, h := range shares {
		if _, tracked := a.hot[p]; !tracked && h.Share >= hotRaiseShare {
			subjects = append(subjects, p)
		}
	}
	for p := range a.hot {
		subjects = append(subjects, p)
	}
	sort.Strings(subjects)

	for _, p := range subjects {
		h, present := shares[p] // an absent aggregate has share 0
		hs := a.hot[p]
		if hs == nil {
			if len(a.hot) >= maxTracked {
				continue
			}
			hs = &hotState{}
			a.hot[p] = hs
		}
		if present {
			hs.ingress = h.Ingress
		}
		raised, cleared := hs.step(h.Share >= hotRaiseShare, h.Share <= hotClearShare, hotHold)
		alerts = emit(alerts, raised, cleared, core.Alert{Kind: core.AlertHotPrefix,
			Prefix: p, Ingress: hs.ingress, Reason: core.Reason{Code: core.ReasonHotPrefix,
				Observed: h.Share, Samples: float64(ws.Mass), MinSamples: hotMinRecords}},
			hotRaiseShare, hotClearShare)
		if !hs.alerted {
			// Cleared, or tracked without ever getting hot: forget it.
			delete(a.hot, p)
		}
	}
	return alerts
}

func lessIngress(a, b flow.Ingress) bool {
	if a.Router != b.Router {
		return a.Router < b.Router
	}
	return a.Iface < b.Iface
}
