// Package ipd is an open reimplementation of IPD — Ingress Point Detection
// at ISPs (Mehner, Reelfs, Poese, Hohlfeld; ACM SIGCOMM 2024). IPD analyzes
// sampled flow-level traffic from all border routers of a network and
// partitions the IP address space into dynamic ranges, each classified to
// the ingress point (router, interface) its traffic enters through.
//
// # Quick start
//
//	cfg := ipd.DefaultConfig()    // Table-1 deployment parameters
//	srv, err := ipd.NewServer(cfg, ipd.DefaultStatTimeConfig())
//	...
//	srv.Ingest(batch)             // []ipd.Record, in arrival order
//	srv.Finish()                  // end of input: final cycle
//	for _, r := range srv.Mapped() {
//	    fmt.Println(r.Prefix, r.Ingress, r.Confidence)
//	}
//
// The Server is the one record path: statistical-time cleaning of router
// clock drift (§3.1), then stage 1 and stage 2 of the engine, with
// concurrent snapshot readers. A streaming input sheds through an
// IngestQueue drained by Server.RunQueue; a trace file calls Ingest and
// Finish directly. NewEngine, the bare core whose caller places the cycles
// itself, is kept for the benchmark's per-layer harness only.
//
// The package re-exports what the repository's commands, examples and
// benchmark build on:
//
//   - the engine and server (internal/core): config, range snapshots,
//     lifecycle events and their decision-log replay, partition diffs, the
//     ingest queue, and the event, alert and reason constants they consume;
//   - the operational layers wired around the engine: the resource
//     governor, the decision journal, the timeline collector, exporter
//     health, the workload profiler, and the pipeline tracer;
//   - the flow-record model, trace codecs and packet sampler
//     (internal/flow), and the statistical-time config (internal/stattime);
//   - the topology's AS and link-class types (internal/topology) and the
//     Appendix-B output-trace writer (internal/export);
//   - a synthetic tier-1 workload generator with exporter-fault injection
//     (internal/trafficgen) that every published figure of the paper can be
//     regenerated against — see cmd/ipd-bench and EXPERIMENTS.md.
package ipd

import (
	"io"
	"time"

	"ipd/internal/core"
	"ipd/internal/exphealth"
	"ipd/internal/export"
	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/journal"
	"ipd/internal/stattime"
	"ipd/internal/telemetry"
	"ipd/internal/timeline"
	"ipd/internal/topology"
	"ipd/internal/trace"
	"ipd/internal/trafficgen"
	"ipd/internal/workload"
)

// Core algorithm types (see internal/core for full documentation).
type (
	// Config holds the IPD parameters of Table 1 (cidr_max, n_cidr
	// factors, q, t, e, decay) plus implementation switches.
	Config = core.Config
	// Engine is a deterministic, virtual-time IPD instance.
	Engine = core.Engine
	// Server wraps an Engine with the deployment's two-thread structure
	// and statistical-time input cleaning.
	Server = core.Server
	// RangeInfo is the externally visible state of one IPD range (one
	// Appendix-B output row).
	RangeInfo = core.RangeInfo
	// Event is one range-lifecycle decision (sequence number, cycle id,
	// kind, prefix, reason) delivered via Config.OnEvent.
	Event = core.Event
	// SketchStatus is the fixed-memory sketch tier's status (sizing, ε/δ
	// bound, degrade/hydrate counters) served at /ipd/sketch.
	SketchStatus = core.SketchStatus
)

// Event kinds the commands and examples act on (the Kind field of Event).
const (
	EventClassified   = core.EventClassified
	EventAlertRaised  = core.EventAlertRaised
	EventAlertCleared = core.EventAlertCleared
	EventStateMode    = core.EventStateMode
)

// Alert kinds (the timeline analytics), carried in the Detail field of
// alert events.
const (
	AlertFlap          = core.AlertFlap
	AlertDrift         = core.AlertDrift
	AlertExporterLoss  = core.AlertExporterLoss
	AlertExporterStale = core.AlertExporterStale
	AlertClockSkew     = core.AlertClockSkew
	AlertHotPrefix     = core.AlertHotPrefix
)

// ReasonDegradedCoverage annotates a decision made over a degraded exporter
// feed (the Reason.Code of an Event).
const ReasonDegradedCoverage = core.ReasonDegradedCoverage

// Resource-governor types. A Governor tracks live resource budgets (active
// ranges, per-IP counter population, ingest-queue depth, heap bytes) and
// drives a normal → degraded → emergency state machine with hysteresis;
// attach it via Config.Governor and the engine evaluates it every stage-2
// cycle, deferring splits while degraded and force-compacting low-traffic
// subtrees plus shedding ingest while in emergency. Transitions are
// journaled as governor events so replay reconstructs governed runs.
type (
	// Governor is the budget-tracking degradation state machine.
	Governor = governor.Governor
	// GovernorConfig sets the budgets.
	GovernorConfig = governor.Config
	// GovernorState is the operating mode: normal, degraded, or emergency.
	GovernorState = governor.State
)

// Governor states.
const (
	GovernorNormal    = governor.StateNormal
	GovernorDegraded  = governor.StateDegraded
	GovernorEmergency = governor.StateEmergency
)

// NewGovernor validates cfg and returns a governor in the normal state; its
// thresholds are fixed (0.8 degraded, 0.95 emergency, 0.6 recover, 3 hold
// cycles). Wire it into an engine via Config.Governor and into the
// ingest queue via IngestQueue.SetAdmission(g.AdmitIngest).
func NewGovernor(cfg GovernorConfig) (*Governor, error) { return governor.New(cfg) }

// Decision-provenance types. A Journal records the engine's lifecycle
// events (attach it via Config.OnEvent = j.Record). A recorded decision log
// replays through ReplayJournalTail into Server.ApplyEvent (see there).
type (
	// Journal is a bounded ring of lifecycle events with per-prefix
	// history and an optional JSONL sink.
	Journal = journal.Journal
	// JournalOptions configures a Journal (capacity, sink, telemetry).
	JournalOptions = journal.Options
)

// Longitudinal-observability types. A TimelineCollector samples the engine at
// the end of every stage-2 cycle into a bounded multi-resolution time-series
// store and runs the flap/drift/convergence analytics over the history. Wire
// it with Config.OnCycle = c.OnCycle and chain c.ObserveEvent into the
// Config.OnEvent callback after the journal.
type (
	// TimelineCollector binds the store and analytics to an engine.
	TimelineCollector = timeline.Collector
	// TimelineOptions configures a TimelineCollector (ring window).
	TimelineOptions = timeline.Options
)

// NewTimelineCollector returns a timeline collector with its own bounded
// store.
func NewTimelineCollector(opts TimelineOptions) *TimelineCollector {
	return timeline.NewCollector(opts)
}

// Exporter-health types. An ExporterHealth tracker accounts every decoded
// NetFlow datagram and IPFIX message per exporter feed — sequence-gap loss
// (with 32-bit wraparound, reordering, and restart detection), export-clock
// skew, record-rate drift, template churn — and folds them into a per-feed
// coverage score at each stage-2 cycle tick. Wire the collectors via their
// SetHealth methods, the engine via Config.Coverage =
// t.IngressCoverage (classifications made over a degraded feed carry a
// ReasonDegradedCoverage annotation), the timeline via
// TimelineCollector.SetExporterHealth (which drives the cycle ticks and the
// exporter-loss/stale/clock-skew alerts).
type (
	// ExporterHealth is the per-exporter feed health tracker.
	ExporterHealth = exphealth.Tracker
	// ExporterHealthOptions parameterizes the tracker (stale-after, skew
	// limit, clock).
	ExporterHealthOptions = exphealth.Options
)

// NewExporterHealth returns an exporter-health tracker with opts' zero
// values replaced by the documented defaults (3m stale-after, 5m skew
// limit); its coverage floor is fixed at 0.9.
func NewExporterHealth(opts ExporterHealthOptions) *ExporterHealth {
	return exphealth.New(opts)
}

// Workload-profiling types. A WorkloadProfiler measures the traffic: top-K
// heavy-hitter /24 (IPv6 /48) aggregates with per-ingress attribution and
// epoch decay, and skew-corrected export-to-ingest/-commit latency. Feed it
// from Server.SetWorkload; drive cycles via
// TimelineCollector.SetWorkload, which also runs the AlertHotPrefix
// hysteresis.
type (
	// WorkloadProfiler is the workload profiler.
	WorkloadProfiler = workload.Profiler
	// WorkloadOptions parameterizes the profiler (top-K, sample thinning,
	// decay cadence, clock and skew sources).
	WorkloadOptions = workload.Options
	// WorkloadSnapshot is the /ipd/workload response body.
	WorkloadSnapshot = workload.Snapshot
)

// NewWorkloadProfiler returns a workload profiler with opts' zero values
// replaced by the documented defaults (top-K 32, 1-in-16 thinning, decay
// every 16 cycles).
func NewWorkloadProfiler(opts WorkloadOptions) *WorkloadProfiler {
	return workload.New(opts)
}

// Pipeline-tracing types. A Tracer threads low-overhead spans through the
// whole pipeline — flow decode, statistical-time binning, stage-1 Observe
// (all sampled 1-in-N), and every stage-2 cycle phase — into a bounded
// lock-free flight recorder. Attach one with the SetTracer methods of
// Engine, Server, TraceReader and the stattime binner.
type (
	// Tracer produces pipeline spans; nil is a valid disabled tracer.
	Tracer = trace.Tracer
	// TracerOptions configures a Tracer (ring capacity, 1-in-N sample
	// rate, seed, metrics registry).
	TracerOptions = trace.Options
)

// NewTracer returns a pipeline tracer; wire it via Engine.SetTracer or
// Server.SetTracer (cycle and Observe spans), TraceReader.SetTracer, and the
// stattime binner's SetTracer.
func NewTracer(opts TracerOptions) *Tracer { return trace.New(opts) }

// NewJournal returns a decision journal; attach it to an engine with
// Config.OnEvent = j.Record (respecting the OnEvent reentrancy contract —
// the journal's Record already does).
func NewJournal(opts JournalOptions) *Journal { return journal.New(opts) }

// DiffPartitions compares two snapshots on what the decision log determines
// (partition, classification, sketch provenance) and names the first range
// that differs; nil means a replay reproduced the run.
func DiffPartitions(want, got []RangeInfo) error { return core.DiffPartitions(want, got) }

// Crash-safety types. An IngestQueue is the bounded shed-oldest overload
// buffer between collectors and Server.RunQueue. See Engine.MarshalState /
// UnmarshalState, Server.EncodeCheckpoint / RestoreCheckpoint /
// SetCheckpoint, and ReplayJournalTail for the full recovery recipe.
type (
	// IngestQueue is the bounded shed-oldest record buffer consumed by
	// Server.RunQueue.
	IngestQueue = core.IngestQueue
)

// NewIngestQueue returns a bounded ingest queue (see IngestQueue).
func NewIngestQueue(capacity int) *IngestQueue { return core.NewIngestQueue(capacity) }

// ReplayJournalTail replays the events of an append-only JSONL decision log
// with Seq > afterSeq through apply and returns how many events were
// applied. Apply is Server.ApplyEvent: after restoring a checkpoint
// covering 1..afterSeq for crash recovery, or with afterSeq 0 on a fresh
// server built with OnEvent nil for a full offline replay.
func ReplayJournalTail(r io.Reader, afterSeq uint64, apply func(Event) error) (int, error) {
	return journal.ReplayTail(r, afterSeq, apply)
}

// Flow-record types.
type (
	// Record is a sampled flow record (timestamp, source, ingress).
	Record = flow.Record
	// Ingress identifies a (router, interface) entry point.
	Ingress = flow.Ingress
	// RouterID identifies a border router.
	RouterID = flow.RouterID
	// IfaceID identifies an interface on a router.
	IfaceID = flow.IfaceID
	// TraceWriter encodes records to the binary trace format.
	TraceWriter = flow.Writer
	// TraceReader decodes records from the binary trace format.
	TraceReader = flow.Reader
	// FlowSampler is the deterministic 1-out-of-n packet sampler; the
	// governor raises its boost factor while degraded.
	FlowSampler = flow.Sampler
)

// NewFlowSampler returns a deterministic 1-out-of-n sampler (n <= 1 passes
// everything; seed 0 selects a fixed default).
func NewFlowSampler(n int, seed uint64) *FlowSampler { return flow.NewSampler(n, seed) }

// Statistical-time types.
type (
	// StatTimeConfig parameterizes the router-clock-drift-tolerant input
	// bucketing of §3.1.
	StatTimeConfig = stattime.Config
)

// Topology types.
type (
	// LinkClass categorizes a border link (PNI, peering, transit, ...).
	LinkClass = topology.LinkClass
	// ASN is an autonomous system number.
	ASN = topology.ASN
)

// TelemetryRegistry names metrics for exposition. Every Engine (and Server)
// maintains one covering stage-1 ingest, stage-2 cycles, and the
// statistical-time binner; obtain it via Engine.Telemetry /
// Server.Telemetry. Scrapes never contend with ingest.
type TelemetryRegistry = telemetry.Registry

// NewFlowMetrics returns the flow-layer metric set (trace decode outcomes,
// sampler decisions), registered under ipd_flow_* when reg is non-nil. Attach
// it to TraceReaders via SetMetrics.
func NewFlowMetrics(reg *TelemetryRegistry) *flow.Metrics { return flow.NewMetrics(reg) }

// Synthetic workload types (the laptop-scale stand-in for a tier-1 ISP's
// border NetFlow; see DESIGN.md).
type (
	// SimSpec parameterizes a synthetic tier-1 scenario.
	SimSpec = trafficgen.Spec
	// SimScenario is a materialized synthetic world with recomputable
	// ground truth.
	SimScenario = trafficgen.Scenario
	// SimGenConfig parameterizes flow-stream generation.
	SimGenConfig = trafficgen.GenConfig
	// SimFaultSpec describes deterministic per-router exporter faults
	// (datagram loss, clock skew, silent windows) layered on a generated
	// stream; pair with NewExporterHealth to exercise the detectors.
	SimFaultSpec = trafficgen.FaultSpec
	// SimFaultWindow is a half-open [From, To) offset interval.
	SimFaultWindow = trafficgen.Window
	// SimV5Packer packs generated records into NetFlow v5 datagrams with
	// sequence-accurate fault injection.
	SimV5Packer = trafficgen.V5Packer
)

// DefaultConfig returns the paper's deployment parameterization (Table 1):
// cidr_max /28 and /48, n_cidr factors 64 and 24, q = 0.95, t = 60 s,
// e = 120 s, and the default decay.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewEngine validates cfg and returns a ready engine with the /0 roots
// active: the bare core, kept for the benchmark's per-layer harness only.
func NewEngine(cfg Config) (*Engine, error) { return core.NewEngine(cfg) }

// NewServer builds the online wrapper: statistical-time cleaning in front
// of an engine, with concurrent snapshot access.
func NewServer(cfg Config, st StatTimeConfig) (*Server, error) {
	return core.NewServer(cfg, st)
}

// DefaultStatTimeConfig mirrors the deployment defaults (60-second buckets,
// 5-minute skew bound).
func DefaultStatTimeConfig() StatTimeConfig { return stattime.DefaultConfig() }

// NewTraceWriter returns a writer for the binary flow-trace format.
func NewTraceWriter(w io.Writer) *TraceWriter { return flow.NewWriter(w) }

// NewTraceReader returns a reader for the binary flow-trace format.
func NewTraceReader(r io.Reader) *TraceReader { return flow.NewReader(r) }

// DefaultSimSpec returns the laptop-scale synthetic tier-1 scenario spec:
// 36 neighbor ASes (TOP5 = 52% of volume, TOP20 = 80%, 16 tier-1 peers) on
// a 48-router international footprint.
func DefaultSimSpec() SimSpec { return trafficgen.DefaultSpec() }

// NewSimScenario materializes a synthetic scenario.
func NewSimScenario(spec SimSpec) (*SimScenario, error) {
	return trafficgen.NewScenario(spec)
}

// DefaultSimGenConfig returns generation defaults suitable for examples.
func DefaultSimGenConfig() SimGenConfig { return trafficgen.DefaultGenConfig() }

// NewSimRecordFaults returns a record-level fault filter for trace
// generation; see trafficgen.RecordFaults.
func NewSimRecordFaults(spec SimFaultSpec, start time.Time) (func(Record) (Record, bool), error) {
	return trafficgen.RecordFaults(spec, start)
}

// NewSimV5Packer builds a datagram-level fault injector; see
// trafficgen.NewV5Packer.
func NewSimV5Packer(spec SimFaultSpec, start time.Time,
	emit func(router RouterID, payload []byte, at time.Time)) (*SimV5Packer, error) {
	return trafficgen.NewV5Packer(spec, start, emit)
}

// WriteOutputSnapshot writes mapped ranges in the Appendix-B raw trace
// format; label may be nil (plain "Rr.i" labels) or a topology's Label for
// country-qualified labels.
func WriteOutputSnapshot(w io.Writer, at time.Time, infos []RangeInfo, label func(Ingress) string) error {
	return export.WriteSnapshot(w, at, infos, label)
}
