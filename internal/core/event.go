package core

import (
	"fmt"
	"time"

	"ipd/internal/flow"
)

// EventKind enumerates the full range lifecycle. Every stage-2 mutation of
// the active partition emits exactly one event (see the emission sites in
// runCycle/split/joinPass/cycleClassified/cycleUnclassified), so a journal
// of events is a complete decision log: replaying it reconstructs the
// partition and classification state at any point of a run.
type EventKind uint8

const (
	// EventClassified : a range gained a prevalent ingress (Algorithm 1
	// lines 9-10: share >= q with at least n_cidr samples).
	EventClassified EventKind = iota
	// EventInvalidated : a classified range lost its prevalent ingress
	// (share fell below q) and was dropped back to unclassified (line 19).
	EventInvalidated
	// EventExpired : a classified range decayed away after receiving no
	// traffic (§3.2 decay; the counters fell below the expiry floor).
	EventExpired
	// EventSplit : a mixed range was replaced by its two children
	// (line 13). Prefix is the parent; Children lists the new ranges.
	EventSplit
	// EventJoined : two classified siblings with the same ingress were
	// merged into their classified parent (line 15). Prefix is the parent;
	// Children lists the removed ranges.
	EventJoined
	// EventCreated : a range entered the active set without replacing a
	// parent: the two /0 family roots at engine construction.
	EventCreated
	// EventDropped : two empty unclassified siblings were collapsed into
	// their empty parent (state cleanup after expiry). Prefix is the
	// parent; Children lists the dropped ranges.
	EventDropped
	// EventCompacted : two siblings were force-merged into an empty
	// unclassified parent by the governor's emergency compaction,
	// discarding their counters and per-IP state. Prefix is the parent;
	// Children lists the removed ranges.
	EventCompacted
	// EventQuarantined : a range's stage-2 processing panicked; the range
	// was reset to empty unclassified state and is skipped for the next few
	// cycles. Detail carries the recovered panic message.
	EventQuarantined
	// EventGovernor : the resource governor changed state. Prefix is empty
	// (the event is about the whole pipeline); Detail carries the new state
	// name (normal, degraded, emergency).
	EventGovernor
	// EventAlertRaised : the timeline analytics layer (Config.OnCycle) raised
	// an operational alert. Flap alerts carry the oscillating range in Prefix;
	// drift alerts carry the shifting ingress in Ingress with an empty Prefix
	// (the alert is about the ingress, not a range). Detail names the alert
	// kind ("flap", "drift"). Like governor events, alert events describe the
	// pipeline's self-observation, not a partition mutation: replay treats
	// them as structural no-ops.
	EventAlertRaised
	// EventAlertCleared : a previously raised alert's condition stayed below
	// its clear threshold for the configured hold, and the alert was retired.
	// Subject fields mirror EventAlertRaised.
	EventAlertCleared
	// EventStateMode : an unclassified range switched per-IP counting modes
	// (Config.Sketch): Detail "sketched" means its exact per-IP map was
	// folded into the shared fixed-memory sketch under governor pressure,
	// "exact" means it hydrated back after the hysteresis hold. The range's
	// partition membership is unchanged — replay treats the event as a mode
	// flag flip on an existing range.
	EventStateMode
)

// Detail values carried by EventStateMode.
const (
	StateModeSketched = "sketched"
	StateModeExact    = "exact"
)

func (k EventKind) String() string {
	switch k {
	case EventClassified:
		return "classified"
	case EventInvalidated:
		return "invalidated"
	case EventExpired:
		return "expired"
	case EventSplit:
		return "split"
	case EventJoined:
		return "joined"
	case EventCreated:
		return "created"
	case EventDropped:
		return "dropped"
	case EventCompacted:
		return "compacted"
	case EventQuarantined:
		return "quarantined"
	case EventGovernor:
		return "governor"
	case EventAlertRaised:
		return "alert-raised"
	case EventAlertCleared:
		return "alert-cleared"
	case EventStateMode:
		return "state-mode"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// MarshalText encodes the kind by name, so journal JSONL stays readable and
// stable across reorderings of the enum.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the name form written by MarshalText.
func (k *EventKind) UnmarshalText(b []byte) error {
	for _, c := range []EventKind{EventClassified, EventInvalidated, EventExpired,
		EventSplit, EventJoined, EventCreated, EventDropped,
		EventCompacted, EventQuarantined, EventGovernor,
		EventAlertRaised, EventAlertCleared, EventStateMode} {
		if string(b) == c.String() {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("core: unknown event kind %q", b)
}

// ReasonCode identifies which threshold comparison decided a lifecycle
// event.
type ReasonCode uint8

const (
	// ReasonNone : no threshold involved.
	ReasonNone ReasonCode = iota
	// ReasonRoot : the range is a /0 family root created at engine start.
	ReasonRoot
	// ReasonPrevalentIngress : top ingress share reached q with at least
	// n_cidr samples (classification).
	ReasonPrevalentIngress
	// ReasonShareBelowQ : the prevalent ingress share fell below q
	// (invalidation).
	ReasonShareBelowQ
	// ReasonDecayedOut : idle decay pushed the counters below the expiry
	// floor (expiration).
	ReasonDecayedOut
	// ReasonMixedIngress : enough samples but no ingress reached q, and the
	// range is above cidr_max (split).
	ReasonMixedIngress
	// ReasonSiblingsAgree : both siblings classified to the same ingress
	// with enough combined samples for the parent (join).
	ReasonSiblingsAgree
	// ReasonEmptyIdle : both siblings stayed empty and unclassified for at
	// least e (drop/collapse).
	ReasonEmptyIdle
	// ReasonOverBudget : a resource budget crossed its degraded or
	// emergency fraction (governor upgrade).
	ReasonOverBudget
	// ReasonBudgetRecovered : all budgets stayed below the recover fraction
	// for the configured hold cycles (governor downgrade).
	ReasonBudgetRecovered
	// ReasonForcedCompaction : the governor's emergency compaction merged a
	// low-traffic sibling pair to reclaim memory.
	ReasonForcedCompaction
	// ReasonPanicRecovered : the range's stage-2 processing panicked and
	// was contained (quarantine).
	ReasonPanicRecovered
	// ReasonFlapRate : a range's classification transitions within the flap
	// window crossed the raise threshold (flap alert), or stayed at or below
	// the clear threshold long enough (flap clear).
	ReasonFlapRate
	// ReasonShareDrift : an ingress's per-cycle traffic share deviated from
	// its EWMA beyond the drift threshold (drift alert), or stayed within the
	// clear band long enough (drift clear).
	ReasonShareDrift
	// ReasonDegradedCoverage : the decision was made while the deciding
	// ingress's exporter feed was lossy, stale, or clock-skewed — its
	// coverage score sat below the configured floor. Carried as the
	// Coverage annotation on classify/join events, not as the primary
	// reason: the threshold comparison still decided the event, but its
	// input was degraded.
	ReasonDegradedCoverage
	// ReasonExporterLoss : an exporter feed's smoothed sequence-gap loss
	// fraction crossed the raise threshold (exporter-loss alert), or
	// stayed at or below the clear threshold long enough (clear).
	ReasonExporterLoss
	// ReasonExporterStale : an exporter feed produced no datagrams or
	// records for longer than exphealth.Options.StaleAfter (3m;
	// exporter-stale alert), or resumed long enough (clear).
	ReasonExporterStale
	// ReasonClockSkew : an exporter's export timestamps drifted from the
	// collector clock beyond exphealth.Options.SkewMax (5m; clock-skew
	// alert), or returned within half the limit long enough (clear).
	ReasonClockSkew
	// ReasonHotPrefix : one /24 (IPv6 /48) aggregate's share of the
	// profiled per-cycle traffic crossed the hot-prefix raise threshold
	// (hot-prefix alert), or stayed below the clear threshold long enough
	// (clear).
	ReasonHotPrefix
	// ReasonSketched : the fixed-memory sketch tier is involved. On
	// EventStateMode it is the mode decision itself (Observed the range's
	// top-ingress share, Threshold the exact-margin boundary Q − margin,
	// Samples the hydration hold on the exact flip). As the Sketch
	// annotation on classify/join events it carries the accuracy bound of
	// the sketched evidence instead: Observed is ε (the count-min additive
	// error as a fraction of window mass), Threshold is δ (the probability
	// the bound is exceeded).
	ReasonSketched
)

func (c ReasonCode) String() string {
	switch c {
	case ReasonNone:
		return "none"
	case ReasonRoot:
		return "root"
	case ReasonPrevalentIngress:
		return "prevalent-ingress"
	case ReasonShareBelowQ:
		return "share-below-q"
	case ReasonDecayedOut:
		return "decayed-out"
	case ReasonMixedIngress:
		return "mixed-ingress"
	case ReasonSiblingsAgree:
		return "siblings-agree"
	case ReasonEmptyIdle:
		return "empty-idle"
	case ReasonOverBudget:
		return "over-budget"
	case ReasonBudgetRecovered:
		return "budget-recovered"
	case ReasonForcedCompaction:
		return "forced-compaction"
	case ReasonPanicRecovered:
		return "panic-recovered"
	case ReasonFlapRate:
		return "flap-rate"
	case ReasonShareDrift:
		return "share-drift"
	case ReasonDegradedCoverage:
		return "degraded-coverage"
	case ReasonExporterLoss:
		return "exporter-loss"
	case ReasonExporterStale:
		return "exporter-stale"
	case ReasonClockSkew:
		return "clock-skew"
	case ReasonHotPrefix:
		return "hot-prefix"
	case ReasonSketched:
		return "sketched"
	}
	return fmt.Sprintf("ReasonCode(%d)", uint8(c))
}

// MarshalText encodes the code by name (journal JSONL readability).
func (c ReasonCode) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses the name form written by MarshalText.
func (c *ReasonCode) UnmarshalText(b []byte) error {
	for _, r := range []ReasonCode{ReasonNone, ReasonRoot, ReasonPrevalentIngress,
		ReasonShareBelowQ, ReasonDecayedOut, ReasonMixedIngress,
		ReasonSiblingsAgree, ReasonEmptyIdle, ReasonOverBudget,
		ReasonBudgetRecovered, ReasonForcedCompaction, ReasonPanicRecovered,
		ReasonFlapRate, ReasonShareDrift, ReasonDegradedCoverage,
		ReasonExporterLoss, ReasonExporterStale, ReasonClockSkew,
		ReasonHotPrefix, ReasonSketched} {
		if string(b) == r.String() {
			*c = r
			return nil
		}
	}
	return fmt.Errorf("core: unknown reason code %q", b)
}

// Reason records the threshold comparison that decided an event: which rule
// fired, and the observed vs configured values on both the quality and the
// evidence axis. It is what makes a decision explainable after the fact
// ("share 0.91 < q 0.95 with 412 samples >= n_cidr 96").
type Reason struct {
	Code ReasonCode `json:"code"`
	// Observed and Threshold are the deciding comparison: top-ingress share
	// vs q (classify/invalidate/split/join), decayed total vs the expiry
	// floor (expire), or idle seconds vs e (drop).
	Observed  float64 `json:"observed"`
	Threshold float64 `json:"threshold"`
	// Samples and MinSamples record the n_cidr evidence gate evaluated
	// alongside the quality comparison; both zero when not applicable.
	Samples    float64 `json:"samples,omitempty"`
	MinSamples float64 `json:"min_samples,omitempty"`
}

// String renders the reason in the explain/CLI form.
func (r Reason) String() string {
	switch r.Code {
	case ReasonNone:
		if r.MinSamples > 0 {
			// The explain verdict for a range still gathering evidence.
			return fmt.Sprintf("gathering: samples %.0f < n_cidr %.0f", r.Samples, r.MinSamples)
		}
		return "none"
	case ReasonRoot:
		return "root: family /0 created at engine start"
	case ReasonPrevalentIngress:
		return fmt.Sprintf("prevalent-ingress: share %.3f >= q %.3f (samples %.0f >= n_cidr %.0f)",
			r.Observed, r.Threshold, r.Samples, r.MinSamples)
	case ReasonShareBelowQ:
		return fmt.Sprintf("share-below-q: share %.3f < q %.3f (samples %.0f)",
			r.Observed, r.Threshold, r.Samples)
	case ReasonDecayedOut:
		return fmt.Sprintf("decayed-out: decayed total %.3f < floor %.0f", r.Observed, r.Threshold)
	case ReasonMixedIngress:
		return fmt.Sprintf("mixed-ingress: top share %.3f < q %.3f (samples %.0f >= n_cidr %.0f)",
			r.Observed, r.Threshold, r.Samples, r.MinSamples)
	case ReasonSiblingsAgree:
		return fmt.Sprintf("siblings-agree: merged share %.3f >= q %.3f (samples %.0f >= n_cidr %.0f)",
			r.Observed, r.Threshold, r.Samples, r.MinSamples)
	case ReasonEmptyIdle:
		return fmt.Sprintf("empty-idle: idle %.0fs >= e %.0fs", r.Observed, r.Threshold)
	case ReasonOverBudget:
		return fmt.Sprintf("over-budget: utilization %.3f >= %.3f", r.Observed, r.Threshold)
	case ReasonBudgetRecovered:
		return fmt.Sprintf("budget-recovered: utilization %.3f < %.3f held for %.0f cycles",
			r.Observed, r.Threshold, r.Samples)
	case ReasonForcedCompaction:
		return fmt.Sprintf("forced-compaction: combined samples %.0f (emergency memory reclamation)", r.Observed)
	case ReasonPanicRecovered:
		return "panic-recovered: stage-2 processing panicked; range reset and quarantined"
	case ReasonFlapRate:
		return fmt.Sprintf("flap-rate: %.0f classification transitions in the last %.0f cycles (threshold %.0f)",
			r.Observed, r.Samples, r.Threshold)
	case ReasonShareDrift:
		return fmt.Sprintf("share-drift: share fell %.3f below its EWMA baseline (threshold %.3f, share %.3f)",
			r.Observed, r.Threshold, r.Samples)
	case ReasonDegradedCoverage:
		return fmt.Sprintf("degraded-coverage: ingress feed coverage %.3f < floor %.3f at decision time",
			r.Observed, r.Threshold)
	case ReasonExporterLoss:
		return fmt.Sprintf("exporter-loss: smoothed loss fraction %.3f (threshold %.3f)",
			r.Observed, r.Threshold)
	case ReasonExporterStale:
		return fmt.Sprintf("exporter-stale: silent for %.0fs (threshold %.0fs)",
			r.Observed, r.Threshold)
	case ReasonClockSkew:
		return fmt.Sprintf("clock-skew: export clock %.0fs from collector clock (limit %.0fs)",
			r.Observed, r.Threshold)
	case ReasonHotPrefix:
		return fmt.Sprintf("hot-prefix: aggregate share %.3f of profiled traffic (threshold %.3f, %.0f records >= min %.0f)",
			r.Observed, r.Threshold, r.Samples, r.MinSamples)
	case ReasonSketched:
		if r.MinSamples > 0 {
			// Sketch-share alert form: only the timeline alert machine sets
			// the MinSamples gate.
			return fmt.Sprintf("sketched: %.3f of %.0f unclassified ranges on sketch tier (threshold %.3f)",
				r.Observed, r.Samples, r.Threshold)
		}
		if r.Observed < r.Threshold {
			// Annotation form: ε is always smaller than δ at valid sketch
			// sizes, while a mode decision's share/boundary pair is not.
			return fmt.Sprintf("sketched: evidence via fixed-memory sketch, error <= %.4f of window mass with probability %.4f",
				r.Observed, 1-r.Threshold)
		}
		return fmt.Sprintf("sketched: top share %.3f vs exact margin %.3f", r.Observed, r.Threshold)
	}
	return r.Code.String()
}

// Event is one range-lifecycle decision. Events are totally ordered by Seq
// (assigned by the engine, monotonic from 1) and carry the stage-2 cycle
// that produced them, so a journal is replayable and any two events are
// unambiguously ordered.
type Event struct {
	// Seq is the engine-assigned monotonic sequence number (1-based).
	Seq uint64 `json:"seq"`
	// Cycle is the stage-2 cycle id that emitted the event; 0 for events
	// emitted before the first cycle (the root Created events).
	Cycle uint64 `json:"cycle"`
	// Kind is the lifecycle transition.
	Kind EventKind `json:"kind"`
	// Prefix is the affected range; for split/joined/dropped/compacted it
	// is the parent of the structural change. Empty for governor events,
	// which concern the whole pipeline.
	Prefix string `json:"prefix"`
	// Ingress is the relevant ingress (classified/invalidated/expired/
	// joined); zero otherwise.
	Ingress flow.Ingress `json:"ingress"`
	// At is the statistical time of the stage-2 cycle that emitted it.
	At time.Time `json:"at"`
	// Reason records which threshold fired, with observed vs configured
	// values.
	Reason Reason `json:"reason"`
	// Children lists the two child prefixes for split (the new ranges) and
	// joined/dropped/compacted (the removed ranges); nil otherwise.
	Children []string `json:"children,omitempty"`
	// Detail carries event-specific free text: the new state name for
	// governor transitions, the recovered panic message for quarantines.
	Detail string `json:"detail,omitempty"`
	// Coverage, when set, annotates a classify/join decision made while
	// the deciding ingress's exporter feed was degraded (Config.Coverage
	// reported a score below its floor): Code is
	// ReasonDegradedCoverage, Observed the score, Threshold the floor.
	// Purely provenance — replay ignores it, the decision stands.
	Coverage *Reason `json:"coverage,omitempty"`
	// Sketch, when set, annotates a classify/join decision taken on
	// sketched evidence (the range was in the fixed-memory tier when its
	// votes accumulated): Code is ReasonSketched, Observed the sketch's ε
	// bound, Threshold its δ. Like Coverage, pure provenance.
	Sketch *Reason `json:"sketch,omitempty"`
}
