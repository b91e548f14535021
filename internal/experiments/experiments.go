// Package experiments contains one driver per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the full index). Each driver
// builds the synthetic scenario, runs IPD on it, computes the same quantity
// the paper reports, prints the rows/series, and returns a structured
// result for tests. The experiments that validate against flows run the
// binaries' record path through RunBins.
//
// Scale note: the deployment processed ~32M flow records per minute with
// n_cidr factor 64; the laptop-scale default here is 3,000 records per
// minute with factor 0.05. n_cidr is an evidence threshold, so it scales
// with the traffic rate — the *shape* of every result is what must (and
// does) carry over, not the absolute sample counts.
package experiments

import (
	"fmt"
	"io"
	"net/netip"
	"slices"
	"sync"
	"time"

	"ipd/internal/core"
	"ipd/internal/eval"
	"ipd/internal/flow"
	"ipd/internal/stattime"
	"ipd/internal/topology"
	"ipd/internal/trafficgen"
)

// Options parameterizes the drivers. The zero value is not valid; start
// from DefaultOptions.
type Options struct {
	// Seed drives scenario and stream generation.
	Seed int64
	// FlowsPerMinute is the average sampled-flow rate.
	FlowsPerMinute int
	// Hours is the length of the validated day run (paper: 25 h).
	Hours int
	// Bin is the output/validation bin (paper: 5 min).
	Bin time.Duration
	// Factor4 is the IPv4 n_cidr factor used for runs (rate-scaled; see
	// the package comment).
	Factor4 float64
	// Q is the quality threshold.
	Q float64
	// Writer receives the printed report (io.Discard silences it).
	Writer io.Writer
}

// DefaultOptions returns the laptop-scale defaults ipd-bench runs at.
func DefaultOptions() Options {
	return Options{
		Seed:           1,
		FlowsPerMinute: 5000,
		Hours:          25,
		Bin:            5 * time.Minute,
		Factor4:        0.01,
		Q:              0.95,
		Writer:         io.Discard,
	}
}

// Quick returns opts shrunk for fast test runs.
func (o Options) Quick() Options {
	o.Hours = 3
	o.FlowsPerMinute = 1500
	return o
}

func (o Options) engineConfig(topo *topology.T) core.Config {
	cfg := core.DefaultConfig()
	cfg.NCidrFactor4 = o.Factor4
	// IPv6 carries ~10% of the dual-stacked hypergiants' volume. The /64-
	// based v6 formula spans 2^32 at the root, so at laptop rates the
	// factor must be tiny and the floor does the real work below the
	// root (n = max(floor, f*sqrt(2^(64-s)))).
	cfg.NCidrFactor6 = 1e-8
	cfg.NCidrFloor = 4 // scaled analogue of the deployment's 256-at-/28 floor
	cfg.Q = o.Q
	cfg.Mapper = topo
	return cfg
}

func (o Options) out() io.Writer {
	if o.Writer == nil {
		return io.Discard
	}
	return o.Writer
}

// Groups used throughout the evaluation.
const (
	GroupAll   = "ALL"
	GroupTop5  = "TOP5"
	GroupTop20 = "TOP20"
	GroupTier1 = "TIER1"
)

// CompactRange is the stripped per-snapshot range record kept by the day
// run (full RangeInfo with counters would be too heavy across 300 bins).
type CompactRange struct {
	Prefix  netip.Prefix
	Ingress flow.Ingress
	Samples float64
}

// Snapshot is the mapped state at the end of one bin.
type Snapshot struct {
	At     time.Time
	Mapped []CompactRange
}

// Infos converts back to RangeInfo for the eval helpers.
func (s Snapshot) Infos() []core.RangeInfo {
	out := make([]core.RangeInfo, len(s.Mapped))
	for i, m := range s.Mapped {
		out[i] = core.RangeInfo{Prefix: m.Prefix, Classified: true, Ingress: m.Ingress, Samples: m.Samples}
	}
	return out
}

// DayRun is the shared validated run over the paper's 25-hour trace
// equivalent. Several figures are different views of this one run.
type DayRun struct {
	Opts     Options
	Scenario *trafficgen.Scenario
	Start    time.Time
	End      time.Time

	// Outcomes per group per bin (Fig. 6).
	Outcomes map[string][]eval.Outcome
	// BinVolume is the flow count per bin (the gray diurnal shade).
	BinVolume []float64
	// Misses per TOP5 AS name by kind, plus distinct miss sources and a
	// per-bin timeline (Figs. 7, 8).
	MissByKind   map[string]map[topology.MissKind]int
	MissSources  map[string]map[netip.Addr]struct{}
	MissTimeline map[string][]int
	// Snapshots every bin (Figs. 2, 9, 11, 12; Table 3).
	Snapshots []Snapshot
	// Spread aggregates raw flows per /24 (Figs. 3, 4): ALL plus per-AS.
	Spread     *eval.IngressSpread
	SpreadByAS map[string]*eval.IngressSpread
	// EngineStats is the final engine counter set (§5.7).
	EngineStats core.Stats
	// BinBytes is the byte total per bin: with BinVolume, the inputs of
	// FlowByteCorr (§3.1 design choice: the two counter bases).
	BinBytes []float64
}

var (
	dayRunMu    sync.Mutex
	dayRunCache = map[Options]*DayRun{}
)

// RunDay executes (or returns the cached) shared validated run for opts.
// The Writer field is ignored for caching purposes.
func RunDay(opts Options) (*DayRun, error) {
	key := opts
	key.Writer = nil
	dayRunMu.Lock()
	defer dayRunMu.Unlock()
	if r, ok := dayRunCache[key]; ok {
		return r, nil
	}
	r, err := runDay(opts)
	if err != nil {
		return nil, err
	}
	dayRunCache[key] = r
	return r, nil
}

func runDay(opts Options) (*DayRun, error) {
	spec := trafficgen.DefaultSpec()
	spec.Seed = opts.Seed
	scn, err := trafficgen.NewScenario(spec)
	if err != nil {
		return nil, err
	}
	run := &DayRun{
		Opts:         opts,
		Scenario:     scn,
		Start:        scn.Start,
		End:          scn.Start.Add(time.Duration(opts.Hours) * time.Hour),
		Outcomes:     map[string][]eval.Outcome{GroupAll: {}, GroupTop5: {}, GroupTop20: {}},
		MissByKind:   map[string]map[topology.MissKind]int{},
		MissSources:  map[string]map[netip.Addr]struct{}{},
		MissTimeline: map[string][]int{},
		Spread:       eval.NewIngressSpread(scn.Topo),
		SpreadByAS:   map[string]*eval.IngressSpread{},
	}

	rank := make(map[*trafficgen.AS]int, len(scn.ASes))
	for i, a := range scn.ASes {
		rank[a] = i
	}
	for _, a := range scn.Top(5) {
		run.SpreadByAS[a.Name] = eval.NewIngressSpread(scn.Topo)
		run.MissByKind[a.Name] = map[topology.MissKind]int{}
		run.MissSources[a.Name] = map[netip.Addr]struct{}{}
	}

	gen := trafficgen.GenConfig{
		FlowsPerMinute: opts.FlowsPerMinute,
		NoiseFraction:  0.002,
		Seed:           opts.Seed,
		Diurnal:        true,
		IPv6Fraction:   0.1,
	}

	binIndex := 0
	run.EngineStats, err = RunBins(opts.engineConfig(scn.Topo), opts.Bin,
		func(yield func(flow.Record) bool) error { return scn.Stream(run.Start, run.End, gen, yield) },
		func(b time.Time, recs []flow.Record, mapped []core.RangeInfo) {
			// Validate the bin's own flows against the LPM table of the
			// ranges at its end — the §5.1 methodology ("recompute the
			// lookup table after every 5-minute bin ... compare the output
			// of the IPD prediction to the same flow data that was used as
			// the original input").
			binStart := b.Add(-opts.Bin)
			pred := eval.NewPredictor(eval.Table(mapped), scn.Topo)
			var oAll, oTop5, oTop20 eval.Outcome
			oAll.Bin, oTop5.Bin, oTop20.Bin = binStart, binStart, binStart
			binBytes := 0.0
			for _, rec := range recs {
				kind, hit := pred.Classify(rec)
				oAll.Accumulate(kind, hit)
				binBytes += float64(rec.Bytes)
				a, ok := scn.ASOf(rec.Src)
				if !ok {
					continue
				}
				r := rank[a]
				if r < 20 {
					oTop20.Accumulate(kind, hit)
				}
				if r < 5 {
					oTop5.Accumulate(kind, hit)
					run.SpreadByAS[a.Name].Add(rec)
					if hit && kind != topology.MissNone {
						run.MissByKind[a.Name][kind]++
						if len(run.MissSources[a.Name]) < 1<<17 {
							run.MissSources[a.Name][rec.Src] = struct{}{}
						}
						for len(run.MissTimeline[a.Name]) <= binIndex {
							run.MissTimeline[a.Name] = append(run.MissTimeline[a.Name], 0)
						}
						run.MissTimeline[a.Name][binIndex]++
					}
				}
				run.Spread.Add(rec)
			}
			run.Outcomes[GroupAll] = append(run.Outcomes[GroupAll], oAll)
			run.Outcomes[GroupTop5] = append(run.Outcomes[GroupTop5], oTop5)
			run.Outcomes[GroupTop20] = append(run.Outcomes[GroupTop20], oTop20)
			run.BinVolume = append(run.BinVolume, float64(len(recs)))
			run.BinBytes = append(run.BinBytes, binBytes)

			snap := Snapshot{At: b}
			for _, ri := range mapped {
				snap.Mapped = append(snap.Mapped, CompactRange{Prefix: ri.Prefix, Ingress: ri.Ingress, Samples: ri.Samples})
			}
			run.Snapshots = append(run.Snapshots, snap)
			binIndex++
		})
	if err != nil {
		return nil, err
	}
	return run, nil
}

// RunBins feeds a stream through the record path both binaries run: a
// core.Server built from cfg and stattime.DefaultConfig(), fed 512-record
// batches and ended with Finish. Per bin boundary b, by core.BinHook (the
// rule cmd/ipd writes its rows by), fn gets the records before b not yet
// handed over (reused after fn returns) and the ranges the last cycle at or
// before b left; the boundaries after the final cycle get its ranges. fn
// must not call back into the server. A record statistical time drops is
// an error: no figure computes on a thinned stream.
func RunBins(cfg core.Config, bin time.Duration, stream func(yield func(flow.Record) bool) error,
	fn func(b time.Time, recs []flow.Record, mapped []core.RangeInfo)) (core.Stats, error) {
	srv, err := core.NewServer(cfg, stattime.DefaultConfig())
	if err != nil {
		return core.Stats{}, err
	}
	var pending, cur []flow.Record
	bins := core.BinHook(bin, func(b time.Time, mapped func() []core.RangeInfo) {
		cur = cur[:0]
		rest := pending[:0]
		for _, rec := range pending {
			if rec.Ts.Before(b) {
				cur = append(cur, rec)
			} else {
				rest = append(rest, rec)
			}
		}
		pending = rest
		fn(b, cur, mapped())
	})
	srv.SetCycleHook(bins)
	batch := make([]flow.Record, 0, 512)
	err = stream(func(rec flow.Record) bool {
		pending = append(pending, rec)
		if batch = append(batch, rec); len(batch) < cap(batch) {
			return true
		}
		srv.Ingest(batch)
		batch = batch[:0]
		return dropped(srv) == nil
	})
	if err != nil {
		return core.Stats{}, err
	}
	srv.Ingest(batch)
	srv.Finish()
	if err := dropped(srv); err != nil {
		return core.Stats{}, err
	}
	// The boundaries after the final cycle, up to the end of the last
	// record's bin, see its ranges: as if one more cycle ran after that end.
	if len(pending) > 0 {
		final := srv.Mapped()
		end := slices.MaxFunc(pending, func(a, b flow.Record) int { return a.Ts.Compare(b.Ts) }).Ts.Truncate(bin).Add(bin)
		bins(end.Add(1), func() []core.RangeInfo { return final })
	}
	st, _ := srv.Stats()
	return st, nil
}

// dropped returns an error once statistical time has dropped a record.
func dropped(srv *core.Server) error {
	if _, st := srv.Stats(); st.DroppedStale+st.DroppedFuture+st.DroppedInactive > 0 {
		return fmt.Errorf("statistical time dropped %d stale, %d future and %d inactive records",
			st.DroppedStale, st.DroppedFuture, st.DroppedInactive)
	}
	return nil
}

// warmupBins is the number of leading bins excluded from run-wide means:
// the engine starts from an empty /0 and needs ~cidr_max cycles to descend
// (the deployment never restarts, so the paper's averages are steady-state).
func (r *DayRun) warmupBins() int {
	w := int(time.Hour / r.Opts.Bin)
	if n := len(r.Outcomes[GroupAll]); w > n/2 {
		w = n / 2
	}
	return w
}

// MeanAccuracy returns the run-wide steady-state accuracy of a group in the
// paper's definition: correctly classified flows relative to ALL flows in
// the bin (an unmapped flow counts as wrong).
func (r *DayRun) MeanAccuracy(group string) float64 {
	var total eval.Outcome
	for _, o := range r.Outcomes[group][r.warmupBins():] {
		total.Merge(o)
	}
	if total.Flows == 0 {
		return 0
	}
	return float64(total.Correct) / float64(total.Flows)
}

// MeanMappedAccuracy is Correct/Mapped (accuracy over flows IPD had an
// opinion about).
func (r *DayRun) MeanMappedAccuracy(group string) float64 {
	var total eval.Outcome
	for _, o := range r.Outcomes[group][r.warmupBins():] {
		total.Merge(o)
	}
	return total.Accuracy()
}

// MeanCoverage returns the run-wide steady-state mapped-flow fraction.
func (r *DayRun) MeanCoverage(group string) float64 {
	var total eval.Outcome
	for _, o := range r.Outcomes[group][r.warmupBins():] {
		total.Merge(o)
	}
	return total.Coverage()
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
