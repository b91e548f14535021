// Package core implements the IPD algorithm of §3 of the paper: a
// traffic-based partitioning of the IP address space into dynamic "IPD
// ranges", each classified to the ingress point (router, interface) through
// which its traffic enters the ISP.
//
// The algorithm operates in two stages. Stage 1 ingests sampled flow
// records: each source address is masked to cidr_max and counted into the
// currently active range covering it. Stage 2 runs every t seconds of
// statistical time: it expires stale per-IP state, decays idle classified
// ranges, classifies ranges with a prevalent ingress (share >= q once the
// minimum sample count n_cidr is reached), splits mixed ranges, joins
// sibling ranges that agree, and drops classifications that are no longer
// valid.
//
// The active ranges always form an exact partition of the address space of
// each family (starting from the /0 roots), which is what makes stage 1 a
// single longest-prefix-match per record.
package core

import (
	"fmt"
	"log/slog"
	"math"
	"net/netip"
	"time"

	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/sketch"
)

// IngressMapper folds physical ingress interfaces into logical ones; the
// deployment uses it to treat LAG bundles as a single ingress (§3.2).
// topology.T implements this interface.
type IngressMapper interface {
	Logical(flow.Ingress) flow.Ingress
}

type identityMapper struct{}

func (identityMapper) Logical(in flow.Ingress) flow.Ingress { return in }

// DefaultDecay is the multiplicative decay factor applied to the counters of
// a classified range that received no traffic, given the age of its last
// sample and the cycle length t — the deployment's decay from Table 1:
// 1 - 0.9/((age/t)+1). Applied cumulatively across idle cycles it reduces a
// freshly idle range hard (factor 0.1 on the first idle cycle) and ever more
// gently afterwards, so state for silent ranges vanishes quickly.
func DefaultDecay(age, t time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return 1 - 0.9/(age.Seconds()/t.Seconds()+1)
}

// Config holds the IPD parameters (Table 1 of the paper). The zero value is
// not valid; start from DefaultConfig.
type Config struct {
	// CIDRMax4 and CIDRMax6 are the maximum (most specific) IPD prefix
	// lengths. Deployment defaults: /28 and /48.
	CIDRMax4 int
	CIDRMax6 int

	// NCidrFactor4/6 scale the minimum sample count:
	// n_cidr(s) = factor * sqrt(2^(hostBits - s)), with hostBits 32 for
	// IPv4 and 64 for IPv6 (treating /64 as host granularity).
	// Deployment defaults: 64 and 24.
	NCidrFactor4 float64
	NCidrFactor6 float64

	// NCidrFloor is a lower bound on n_cidr at any prefix length. The
	// deployment's factor-64 formula implies a floor of 256 samples at
	// /28; laptop-scale runs with small factors set a proportional floor
	// so that single-flow ranges never classify ("focus on high-traffic
	// prefixes", §3.1). 0 means 1.
	NCidrFloor float64

	// Q is the quality threshold: a range is classified when its top
	// ingress carries at least share Q of its samples. Deployment: 0.95.
	Q float64

	// T is the stage-2 cycle length (time bucket). Deployment: 60 s.
	T time.Duration

	// E is the expiration age for per-IP state in unclassified ranges.
	// Deployment: 120 s.
	E time.Duration

	// NoDecay turns off DefaultDecay, which shrinks the counters of idle
	// classified ranges (ablation).
	NoDecay bool

	// CountBytes switches the classification counters from flow counts to
	// byte counts (the paper's non-simplified variant, §3.1 design choice
	// 2). Flow counting is the deployment default.
	CountBytes bool

	// KeepIPStateOnSplit controls whether a split redistributes the per-IP
	// sample state into the children (deployment behaviour) or starts the
	// children empty (ablation; slower convergence).
	KeepIPStateOnSplit bool

	// Mapper folds physical interfaces to logical ingresses (bundles);
	// nil means identity.
	Mapper IngressMapper

	// OnEvent, when non-nil, receives every range-lifecycle event (see
	// EventKind), in sequence order, synchronously from the engine's
	// ingest/cycle path — attach a journal.Journal here for the decision
	// provenance layer, or a custom sink for the case-study figures.
	//
	// Reentrancy contract: the callback runs while the engine's internal
	// state is mid-mutation (and, under Server, while the ingest lock is
	// held). Calling ANY Engine or Server method from inside the callback
	// is forbidden; the mutating entry points (Observe, ObserveBatch, AdvanceTo,
	// ForceCycle) detect it and panic, and read methods (Snapshot, Range,
	// Explain, ...) may observe a half-applied cycle. Copy the Event out
	// and return quickly.
	OnEvent func(Event)

	// OnCycle, when non-nil, receives a CycleSample at the end of every
	// stage-2 cycle: engine shape, per-cycle lifecycle deltas, per-ingress
	// traffic shares, and the governor snapshot. The hook returns the
	// operational alerts its analytics decided this cycle; the engine emits
	// each as an EventAlertRaised or EventAlertCleared lifecycle event, so
	// alerts are journaled with the usual seq/cycle stamps and replay
	// deterministically.
	//
	// The same reentrancy contract as OnEvent applies: the callback must not
	// call back into the engine, and the sample's slices are only valid for
	// the duration of the call. Attach timeline.Collector.OnCycle here.
	OnCycle func(CycleSample) []Alert

	// Logger, when non-nil, receives one structured log record per stage-2
	// cycle (cycle number, duration, range delta, lifecycle deltas,
	// top-ingress churn) at Info level. nil disables cycle logging; the
	// per-cycle bookkeeping is skipped entirely when the logger's level
	// filters Info out.
	Logger *slog.Logger

	// MaxRanges caps the active-range count (the Appendix A memory proxy
	// made a hard budget). Splits that would exceed it are deferred and
	// counted in ipd_splits_deferred_total; since splits are the only way
	// the range count grows, the cap holds unconditionally. 0 disables.
	MaxRanges int

	// MaxIPStates caps the per-masked-IP entry population across
	// unclassified ranges. At the cap, stage 1 stops creating entries for
	// previously unseen masked IPs (existing entries keep counting) and
	// accounts the skips in ipd_ip_states_skipped_total. 0 disables.
	MaxIPStates int

	// Governor, when non-nil, is evaluated at the end of every stage-2
	// cycle with the engine's live range and per-IP populations. Degraded
	// state defers all splits; emergency state triggers compaction (forced
	// joins of the deepest low-traffic sibling pairs) until utilization
	// falls below the governor's recover target. State transitions are
	// journaled as EventGovernor events.
	Governor *governor.Governor

	// Coverage, when non-nil, reports the input-feed coverage of an
	// ingress's router at decision time: the score in [0, 1] (1 = clean
	// feed), the configured floor, and whether the feed counts as
	// degraded (score < floor). Attach exphealth.Tracker.IngressCoverage.
	// The engine consults it when a range classifies or joins; degraded
	// decisions stand but carry a ReasonDegradedCoverage annotation on
	// their events and in Explain, so "the network moved" stays
	// distinguishable from "the exporter broke".
	//
	// The hook is called from inside the stage-2 cycle; like OnEvent, it
	// must not call back into the engine and must return quickly.
	Coverage func(flow.Ingress) (score, floor float64, degraded bool)

	// CycleFault, when non-nil, is invoked with each range's prefix
	// immediately before its stage-2 processing — the chaos/fault-injection
	// hook. A panic raised here (or anywhere in a range's processing) is
	// contained: the range is reset, quarantined for a few cycles, and an
	// EventQuarantined is emitted while the cycle keeps going.
	CycleFault func(netip.Prefix)

	// Sketch enables the fixed-memory degradation tier (internal/sketch):
	// while the governor is degraded or in emergency, unclassified ranges
	// whose top-ingress share sits more than ExactMargin below Q
	// stop minting exact per-IP entries and route per-source evidence
	// through a shared count-min + Bloom sketch instead, keeping vote
	// tallies live at fixed memory. Ranges near the classification
	// threshold keep exact state; sketched ranges hydrate back to exact
	// after sketchHoldCycles eligible cycles (hysteretic, so the boundary
	// cannot flap). When enabled, the sketch also preserves the coarse
	// first-seen timestamp of sources refused by the MaxIPStates cap.
	Sketch bool

	// SketchWidth and SketchDepth size the shared count-min sketch: the
	// per-source estimate error is within e/SketchWidth of the window
	// mass with probability 1 - e^-SketchDepth. 0 selects the
	// internal/sketch defaults (1024 × 4).
	SketchWidth int
	SketchDepth int
}

// ExactMargin is how far below Q a range's top-ingress share must be before
// the range may degrade to sketched state; ranges within the margin of the
// classification threshold always keep exact per-IP state.
const ExactMargin = 0.05

// sketchHoldCycles is how many consecutive hydration-eligible cycles
// (governor normal again, or the range back inside the exact margin) a
// sketched range must see before it re-mints exact state.
const sketchHoldCycles = 3

// DefaultConfig returns the deployment parameterization from Table 1.
func DefaultConfig() Config {
	return Config{
		CIDRMax4:           28,
		CIDRMax6:           48,
		NCidrFactor4:       64,
		NCidrFactor6:       24,
		Q:                  0.95,
		T:                  time.Minute,
		E:                  2 * time.Minute,
		KeepIPStateOnSplit: true,
	}
}

// Validate checks the configuration, mirroring the constraints found in the
// paper's factor screening (Appendix A: q <= 0.5 yields ambiguous
// classifications and is rejected; out-of-range cidr_max values fail).
func (c *Config) Validate() error {
	if c.CIDRMax4 < 1 || c.CIDRMax4 > 32 {
		return fmt.Errorf("core: CIDRMax4 %d out of range [1,32]", c.CIDRMax4)
	}
	if c.CIDRMax6 < 1 || c.CIDRMax6 > 128 {
		return fmt.Errorf("core: CIDRMax6 %d out of range [1,128]", c.CIDRMax6)
	}
	if c.NCidrFactor4 <= 0 || c.NCidrFactor6 <= 0 {
		return fmt.Errorf("core: n_cidr factors must be positive (got %v, %v)", c.NCidrFactor4, c.NCidrFactor6)
	}
	if c.NCidrFloor < 0 {
		return fmt.Errorf("core: NCidrFloor %v must be >= 0", c.NCidrFloor)
	}
	if !(c.Q > 0.5 && c.Q <= 1) {
		return fmt.Errorf("core: Q %v must be in (0.5, 1]", c.Q)
	}
	if c.T <= 0 {
		return fmt.Errorf("core: T %v must be positive", c.T)
	}
	if c.E <= 0 {
		return fmt.Errorf("core: E %v must be positive", c.E)
	}
	if c.MaxRanges < 0 {
		return fmt.Errorf("core: MaxRanges %d must be >= 0", c.MaxRanges)
	}
	if c.MaxRanges > 0 && c.MaxRanges < 2 {
		return fmt.Errorf("core: MaxRanges %d must leave room for the two /0 roots", c.MaxRanges)
	}
	if c.MaxIPStates < 0 {
		return fmt.Errorf("core: MaxIPStates %d must be >= 0", c.MaxIPStates)
	}
	if c.Sketch {
		if err := c.sketchConfig().Validate(); err != nil {
			return err
		}
		if ExactMargin >= c.Q {
			return fmt.Errorf("core: Q %v must exceed the sketch tier's exact margin %v", c.Q, ExactMargin)
		}
	}
	return nil
}

// sketchConfig assembles the internal/sketch configuration: explicit sizes
// with package defaults for unset fields and the default seed, and a
// generation ring spanning the
// per-IP expiry horizon (ceil(E/T)+1 cycles), so the sketch window ages
// evidence out on the same clock exact expiry would.
func (c *Config) sketchConfig() sketch.Config {
	gens := int((c.E + c.T - 1) / c.T)
	if gens < 1 {
		gens = 1
	}
	gens++
	if gens > 64 {
		gens = 64
	}
	return sketch.Config{
		Width:       c.SketchWidth,
		Depth:       c.SketchDepth,
		Generations: gens,
	}.WithDefaults()
}

// NCidr returns the minimum sample count for a range of the given prefix
// length and family (the paper's n_cidr; verified against the Appendix B
// trace: with factor 24, /16 -> 6144, /23 -> 543, /26 -> 192, /28 -> 96).
func (c *Config) NCidr(bits int, v6 bool) float64 {
	factor, host := c.NCidrFactor4, 32
	if v6 {
		factor, host = c.NCidrFactor6, 64
	}
	if bits > host {
		bits = host
	}
	n := math.Round(factor * math.Sqrt(math.Pow(2, float64(host-bits))))
	if n < c.NCidrFloor {
		n = c.NCidrFloor
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (c *Config) cidrMax(v6 bool) int {
	if v6 {
		return c.CIDRMax6
	}
	return c.CIDRMax4
}

func (c *Config) decay(age time.Duration) float64 {
	if c.NoDecay {
		return 1
	}
	return min(max(DefaultDecay(age, c.T), 0), 1)
}

func (c *Config) mapper() IngressMapper {
	if c.Mapper == nil {
		return identityMapper{}
	}
	return c.Mapper
}
