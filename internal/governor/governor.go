// Package governor is the resource-governance layer of the IPD pipeline.
//
// The paper's Appendix A treats the active-range count as the deployment's
// memory proxy but never bounds it: a scan or spoofed-source burst can mint
// ranges and per-IP counters until the process OOMs. The governor closes
// that gap. It tracks live budgets — active ranges, per-IP counter
// population, ingest-queue depth, and heap occupancy via runtime/metrics —
// and drives a three-state machine:
//
//	normal ──(any budget ≥ DegradedFraction)──▶ degraded
//	degraded ──(any budget ≥ EmergencyFraction)──▶ emergency
//	emergency/degraded ──(all budgets < RecoverFraction
//	                      for HoldCycles consecutive evaluations)──▶ down one state
//
// Upgrades are immediate (an overload must be reacted to now); downgrades
// are hysteretic (HoldCycles consecutive calm evaluations), so a budget
// oscillating around a threshold cannot flap the pipeline between modes.
//
// The governor itself only decides; the engine, queue, and sampler consult
// State() — a single atomic load — to act: degraded mode raises the flow
// sampler's 1-in-n rate and defers stage-2 splits, emergency mode compacts
// the deepest low-traffic subtrees and sheds ingest at the queue. Evaluate
// is called by exactly one goroutine (the engine's stage-2 cycle); State,
// Snapshot, and the metrics are safe for concurrent use.
package governor

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"

	"ipd/internal/telemetry"
)

// State is the governor's operating mode. The ordering is meaningful:
// higher states are more degraded, and transitions move one state at a time
// on recovery but jump straight to emergency on a severe breach.
type State int32

const (
	// StateNormal : all budgets comfortably below their thresholds; the
	// pipeline runs the paper's algorithm unmodified.
	StateNormal State = iota
	// StateDegraded : a budget crossed DegradedFraction; the sampler rate
	// is raised and stage-2 splits are deferred so state growth pauses.
	StateDegraded
	// StateEmergency : a budget crossed EmergencyFraction; the engine
	// compacts low-traffic subtrees and the ingest queue sheds records
	// until utilization recovers.
	StateEmergency
)

func (s State) String() string {
	switch s {
	case StateNormal:
		return "normal"
	case StateDegraded:
		return "degraded"
	case StateEmergency:
		return "emergency"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// MarshalText encodes the state by name (JSON/journal readability).
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Actions returns the degradation actions the pipeline applies in state s,
// in escalation order. With the sketch tier enabled (Config.SketchTier),
// far-from-threshold ranges degrade to sketched votes BEFORE stage 1 stops
// minting per-IP entries at the cap — the sketch axis keeps vote evidence
// accumulating at fixed memory, so "stop-minting" becomes the fallback for
// near-threshold ranges only.
func (s State) Actions(sketchTier bool) []string {
	base := func() []string {
		a := []string{"raise-sampling", "defer-splits"}
		if sketchTier {
			a = append(a, "sketch")
		}
		return append(a, "stop-minting")
	}
	switch s {
	case StateDegraded:
		return base()
	case StateEmergency:
		return append(base(), "compact", "shed-ingest")
	}
	return nil
}

// UnmarshalText parses the name form written by MarshalText.
func (s *State) UnmarshalText(b []byte) error {
	for _, c := range []State{StateNormal, StateDegraded, StateEmergency} {
		if string(b) == c.String() {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("governor: unknown state %q", b)
}

// Usage is one point-in-time reading of the governed resources, supplied by
// the engine at each Evaluate call. Zero fields are fine for resources the
// caller does not track.
type Usage struct {
	// Ranges is the active-range count (the Appendix A memory proxy).
	Ranges int
	// IPStates is the per-masked-IP entry count across unclassified ranges.
	IPStates int
	// QueueDepth is the ingest-queue backlog; filled from Config.QueueDepth
	// when a provider is wired, otherwise taken from this field.
	QueueDepth int
	// HeapBytes is the live heap occupancy; filled from runtime/metrics
	// unless the caller provides it (tests).
	HeapBytes uint64
}

// Config parameterizes a Governor. Budgets set to zero are unlimited (that
// axis never contributes to the state decision).
type Config struct {
	// MaxRanges caps the active-range count. The engine additionally
	// enforces this as a hard cap at split time, so the range count cannot
	// exceed it even between evaluations.
	MaxRanges int
	// MaxIPStates caps the per-masked-IP entry population.
	MaxIPStates int
	// MemBudget caps live heap bytes (compare GOMEMLIMIT, but acted on
	// before the runtime starts thrashing GC).
	MemBudget uint64
	// QueueCap and QueueDepth describe the ingest queue: capacity and a
	// live depth provider. Both optional; the axis is off without them.
	QueueCap   int
	QueueDepth func() int

	// ReadHeap overrides the live-heap reading (tests); nil reads
	// /memory/classes/heap/objects:bytes from runtime/metrics.
	ReadHeap func() uint64

	// Registry, when non-nil, receives ipd_governor_state,
	// ipd_governor_transitions_total{to=...}, and per-budget utilization
	// gauges.
	Registry *telemetry.Registry

	// OnTransition, when non-nil, is called synchronously from Evaluate on
	// every state change — `ipd -listen` uses it to adjust the flow sampler.
	// It must not call back into Evaluate.
	OnTransition func(from, to State, u Usage)

	// SketchTier records that the engine runs the fixed-memory sketch tier
	// (core Config.Sketch), which inserts the "sketch" action before
	// "stop-minting" in the degradation ladder reported by Snapshot.
	SketchTier bool
}

// The state machine's thresholds on each budget's utilization.
// DegradedFraction and EmergencyFraction are the upgrade thresholds and
// RecoverFraction the downgrade threshold; a downgrade requires HoldCycles
// consecutive calm evaluations (all budgets below RecoverFraction). The
// engine compacts down to RecoverFraction, so that the hold can start.
const (
	DegradedFraction  = 0.8
	EmergencyFraction = 0.95
	RecoverFraction   = 0.6
	HoldCycles        = 3
)

// emergencyAdmitN is the admission-control rate during emergency: the
// ingest queue accepts 1 in emergencyAdmitN offered records (deterministic,
// counter-based, so the accepted subsample stays unbiased over time).
const emergencyAdmitN = 8

// BudgetStatus is the per-axis view inside a Snapshot.
type BudgetStatus struct {
	Name        string  `json:"name"`
	Used        float64 `json:"used"`
	Max         float64 `json:"max"`
	Utilization float64 `json:"utilization"`
}

// Snapshot is the introspection view served at /ipd/governor.
type Snapshot struct {
	State       State          `json:"state"`
	Utilization float64        `json:"utilization"`
	Budgets     []BudgetStatus `json:"budgets"`
	// Actions is the degradation ladder active in the current state, in
	// escalation order (empty in normal state).
	Actions     []string `json:"actions,omitempty"`
	Transitions uint64   `json:"transitions"`
	// HoldProgress counts consecutive calm evaluations toward the next
	// downgrade (0 when not recovering); HoldCycles is the target.
	HoldProgress int    `json:"hold_progress"`
	HoldCycles   int    `json:"hold_cycles"`
	Evaluations  uint64 `json:"evaluations"`
}

// Governor tracks budget utilization and drives the three-state machine.
// Evaluate is single-writer; State and Snapshot are safe for concurrent use.
type Governor struct {
	cfg   Config
	state atomic.Int32

	// hold counts consecutive calm evaluations. Written only by Evaluate;
	// atomic because Snapshot may read it from a scrape goroutine.
	hold atomic.Int32

	evaluations telemetry.Counter
	transitions [3]*telemetry.Counter // indexed by target State

	stateGauge telemetry.Gauge

	// admitTick drives the deterministic 1-in-N emergency admission.
	admitTick atomic.Uint64

	// lastMu guards the last Usage/utilization reading for Snapshot.
	lastMu   sync.Mutex
	lastUse  Usage
	lastUtil float64
}

// New validates cfg and returns a governor in StateNormal.
func New(cfg Config) (*Governor, error) {
	if cfg.MaxRanges < 0 || cfg.MaxIPStates < 0 || cfg.QueueCap < 0 {
		return nil, fmt.Errorf("governor: budgets must be >= 0")
	}
	if cfg.ReadHeap == nil {
		cfg.ReadHeap = readHeapBytes
	}
	g := &Governor{cfg: cfg}
	for i := range g.transitions {
		g.transitions[i] = new(telemetry.Counter)
	}
	if cfg.Registry != nil {
		g.RegisterMetrics(cfg.Registry)
	}
	return g, nil
}

// RegisterMetrics registers the governor's gauges and counters on reg. It is
// called automatically when Config.Registry is set; binaries that build the
// governor before the engine (the registry does not exist yet) call it once
// after NewEngine with the engine's registry. Register on one registry only.
func (g *Governor) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterGauge("ipd_governor_state",
		"Governor state: 0 normal, 1 degraded, 2 emergency.", &g.stateGauge)
	reg.RegisterCounter("ipd_governor_evaluations_total",
		"Governor budget evaluations (one per stage-2 cycle).", &g.evaluations)
	for _, s := range []State{StateNormal, StateDegraded, StateEmergency} {
		c := reg.LabeledCounter("ipd_governor_transitions_total",
			[]telemetry.Label{{Name: "to", Value: s.String()}},
			"Governor state transitions by target state.")
		// Carry over transitions counted before registration.
		c.Add(g.transitions[s].Value())
		g.transitions[s] = c
	}
	reg.GaugeFunc("ipd_governor_utilization",
		"Highest budget utilization at the last evaluation (0..1+).", func() float64 {
			g.lastMu.Lock()
			defer g.lastMu.Unlock()
			return g.lastUtil
		})
	g.stateGauge.Set(int64(g.State()))
}

// readHeapBytes reads live heap occupancy from runtime/metrics. The sample
// is cheap (one metric, no stop-the-world) and runs once per stage-2 cycle.
func readHeapBytes() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// State returns the current operating mode (one atomic load; safe to call
// from the ingest hot path).
func (g *Governor) State() State { return State(g.state.Load()) }

// Config returns the governor's configuration.
func (g *Governor) Config() Config { return g.cfg }

// budgets assembles the per-axis utilization readings for u. Unlimited axes
// (zero budget) are omitted.
func (g *Governor) budgets(u Usage) []BudgetStatus {
	var out []BudgetStatus
	add := func(name string, used, max float64) {
		if max <= 0 {
			return
		}
		out = append(out, BudgetStatus{Name: name, Used: used, Max: max, Utilization: used / max})
	}
	add("ranges", float64(u.Ranges), float64(g.cfg.MaxRanges))
	add("ip_states", float64(u.IPStates), float64(g.cfg.MaxIPStates))
	add("heap_bytes", float64(u.HeapBytes), float64(g.cfg.MemBudget))
	add("queue_depth", float64(u.QueueDepth), float64(g.cfg.QueueCap))
	return out
}

// Evaluate folds one Usage reading into the state machine and returns the
// resulting state. Missing fields are filled from the configured providers
// (heap via runtime/metrics, queue depth via Config.QueueDepth). Call it
// from a single goroutine — the engine's stage-2 cycle.
func (g *Governor) Evaluate(u Usage) State {
	if u.HeapBytes == 0 && g.cfg.MemBudget > 0 {
		u.HeapBytes = g.cfg.ReadHeap()
	}
	if g.cfg.QueueDepth != nil {
		u.QueueDepth = g.cfg.QueueDepth()
	}
	util := 0.0
	for _, b := range g.budgets(u) {
		if b.Utilization > util {
			util = b.Utilization
		}
	}

	prev := g.State()
	next := prev
	switch {
	case util >= EmergencyFraction:
		next = StateEmergency
		g.hold.Store(0)
	case util >= DegradedFraction:
		// Never downgrade here: an emergency recovers through the hysteresis
		// path below, not by sliding back the moment it dips under 0.95.
		if next < StateDegraded {
			next = StateDegraded
		}
		g.hold.Store(0)
	case util < RecoverFraction && prev != StateNormal:
		if g.hold.Add(1) >= HoldCycles {
			next = prev - 1
			g.hold.Store(0)
		}
	default:
		// Between recover and degraded: calm enough not to escalate, not
		// calm enough to count toward a downgrade.
		g.hold.Store(0)
	}

	g.evaluations.Inc()
	g.lastMu.Lock()
	g.lastUse, g.lastUtil = u, util
	g.lastMu.Unlock()

	if next != prev {
		g.state.Store(int32(next))
		g.stateGauge.Set(int64(next))
		g.transitions[next].Inc()
		if g.cfg.OnTransition != nil {
			g.cfg.OnTransition(prev, next, u)
		}
	}
	return next
}

// AdmitIngest is the ingest-queue admission predicate: every record is
// admitted outside emergency; during emergency 1 in emergencyAdmitN is.
// Safe for concurrent use (receive loops call it per record).
func (g *Governor) AdmitIngest() bool {
	if g.State() != StateEmergency {
		return true
	}
	return g.admitTick.Add(1)%emergencyAdmitN == 0
}

// Transitions returns the cumulative transition count into s.
func (g *Governor) Transitions(s State) uint64 {
	if s < StateNormal || s > StateEmergency {
		return 0
	}
	return g.transitions[s].Value()
}

// Snapshot returns the introspection view: current state, per-budget
// utilization from the last evaluation, and transition accounting.
func (g *Governor) Snapshot() Snapshot {
	g.lastMu.Lock()
	u, util := g.lastUse, g.lastUtil
	g.lastMu.Unlock()
	total := uint64(0)
	for _, c := range g.transitions {
		total += c.Value()
	}
	return Snapshot{
		State:        g.State(),
		Utilization:  util,
		Budgets:      g.budgets(u),
		Actions:      g.State().Actions(g.cfg.SketchTier),
		Transitions:  total,
		HoldProgress: g.holdProgress(),
		HoldCycles:   HoldCycles,
		Evaluations:  g.evaluations.Value(),
	}
}

func (g *Governor) holdProgress() int { return int(g.hold.Load()) }
