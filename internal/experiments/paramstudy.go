package experiments

import (
	"sort"
	"time"

	"ipd/internal/core"
	"ipd/internal/eval"
	"ipd/internal/flow"
	"ipd/internal/metrics"
	"ipd/internal/trafficgen"
)

// StudyGrid defines the factorial design of Appendix A (Table 2). Levels
// are the paper's, with n_cidr factors rescaled to the synthetic traffic
// rate (the deployment's factor 64 corresponds to ~6.5M records/s; see the
// package comment).
type StudyGrid struct {
	Qs       []float64
	Factors  []float64
	CIDRMax4 []int
	// Hours of workload per configuration.
	Hours int
}

// FullGrid mirrors Table 2's IPv4 factors: 5 q levels x 4 factor levels x
// 9 cidr_max levels = 180 configurations (the paper's 308 includes the
// IPv6 twins, which are locked to the IPv4 choice here exactly as the
// paper's "conditional parameter setting" does).
func FullGrid() StudyGrid {
	return StudyGrid{
		Qs:       []float64{0.501, 0.7, 0.8, 0.95, 0.99},
		Factors:  []float64{0.025, 0.0375, 0.05, 0.0625}, // ∝ paper's 32,48,64,80
		CIDRMax4: []int{20, 21, 22, 23, 24, 25, 26, 27, 28},
		Hours:    2,
	}
}

// ScreeningGrid is a small grid for tests and quick runs.
func ScreeningGrid() StudyGrid {
	return StudyGrid{
		Qs:       []float64{0.7, 0.95},
		Factors:  []float64{0.005, 0.02},
		CIDRMax4: []int{22, 26, 28},
		Hours:    1,
	}
}

// ParamResult is the outcome of one configuration.
type ParamResult struct {
	Q       float64
	Factor  float64
	CIDRMax int
	// Accuracy is the validated classification accuracy (ALL group).
	Accuracy float64
	// MeanStabilityH is the mean stable-phase duration in hours.
	MeanStabilityH float64
	// KSLognormal is the KS distance of the stability distribution to a
	// fitted lognormal (the appendix's stability metric).
	KSLognormal float64
	// MaxRanges is the peak active range count (memory proxy).
	MaxRanges int
}

// StudyResult is the full factorial outcome plus the per-factor ANOVA.
type StudyResult struct {
	Results []ParamResult
	// ANOVA[metric][factor] tests whether the factor's levels shift the
	// metric (the appendix's factor screening).
	ANOVA map[string]map[string]metrics.AnovaResult
}

// ParamStudy runs the Appendix A factorial study on a shared workload.
func ParamStudy(opts Options, grid StudyGrid) (StudyResult, error) {
	spec := trafficgen.DefaultSpec()
	spec.Seed = opts.Seed
	scn, err := trafficgen.NewScenario(spec)
	if err != nil {
		return StudyResult{}, err
	}
	// One shared workload for all configurations (the algorithm is
	// deterministic, so each parameter set runs once — §A).
	gen := trafficgen.GenConfig{
		FlowsPerMinute: opts.FlowsPerMinute,
		NoiseFraction:  0.002,
		Seed:           opts.Seed,
		Diurnal:        true,
	}
	start := scn.Start.Add(18 * time.Hour) // include the evening ramp
	end := start.Add(time.Duration(grid.Hours) * time.Hour)
	records, err := scn.Records(start, end, gen)
	if err != nil {
		return StudyResult{}, err
	}

	var study StudyResult
	for _, q := range grid.Qs {
		for _, f := range grid.Factors {
			for _, cm := range grid.CIDRMax4 {
				res, err := runParamConfig(opts, scn, records, q, f, cm)
				if err != nil {
					return StudyResult{}, err
				}
				study.Results = append(study.Results, res)
			}
		}
	}
	study.ANOVA = studyANOVA(study.Results)

	w := opts.out()
	fprintf(w, "# Appendix A: parameter study (%d configurations, %d records each)\n",
		len(study.Results), len(records))
	fprintf(w, "# paper: accuracy flat across parameters; stability ~ q, cidr_max; resources ~ cidr_max\n")
	fprintf(w, "%-6s %-8s %-8s %-9s %-11s %-8s %s\n",
		"q", "factor", "cidrmax", "accuracy", "stability_h", "ks_logn", "max_ranges")
	for _, r := range study.Results {
		fprintf(w, "%-6.3f %-8.4f %-8d %-9.3f %-11.3f %-8.3f %d\n",
			r.Q, r.Factor, r.CIDRMax, r.Accuracy, r.MeanStabilityH, r.KSLognormal, r.MaxRanges)
	}
	for _, metric := range []string{"accuracy", "stability", "ranges"} {
		for _, factor := range []string{"q", "factor", "cidrmax"} {
			a := study.ANOVA[metric][factor]
			fprintf(w, "anova metric=%-9s factor=%-7s F=%-8.2f p=%-8.4f eta2=%.3f\n",
				metric, factor, a.F, a.P, a.EtaSq)
		}
	}
	return study, nil
}

func runParamConfig(opts Options, scn *trafficgen.Scenario, records []flow.Record,
	q, factor float64, cidrMax int) (ParamResult, error) {
	cfg := core.DefaultConfig()
	cfg.Q = q
	cfg.NCidrFactor4 = factor
	cfg.NCidrFactor6 = 1e-8
	cfg.CIDRMax4 = cidrMax
	cfg.Mapper = scn.Topo
	res := ParamResult{Q: q, Factor: factor, CIDRMax: cidrMax}
	tracker := eval.NewStabilityTracker()
	var outcome eval.Outcome
	var ranges int // active ranges after the latest cycle
	cfg.OnCycle = func(s core.CycleSample) []core.Alert { ranges = s.Ranges; return nil }
	_, err := RunBins(cfg, opts.Bin,
		func(yield func(flow.Record) bool) error {
			for _, rec := range records {
				if !yield(rec) {
					break
				}
			}
			return nil
		},
		func(b time.Time, recs []flow.Record, mapped []core.RangeInfo) {
			pred := eval.NewPredictor(eval.Table(mapped), scn.Topo)
			for _, rec := range recs {
				outcome.Accumulate(pred.Classify(rec))
			}
			tracker.Observe(b, mapped)
			res.MaxRanges = max(res.MaxRanges, ranges)
		})
	if err != nil {
		return ParamResult{}, err
	}

	res.Accuracy = outcome.Accuracy()
	durations := eval.Durations(tracker.Finish())
	if len(durations) > 0 {
		res.MeanStabilityH = metrics.Mean(durations)
		fit := metrics.FitLogNormal(durations)
		res.KSLognormal = metrics.KSDistance(durations, fit)
	}
	return res, nil
}

// studyANOVA groups each metric by each factor's levels.
func studyANOVA(results []ParamResult) map[string]map[string]metrics.AnovaResult {
	metricsOf := map[string]func(ParamResult) float64{
		"accuracy":  func(r ParamResult) float64 { return r.Accuracy },
		"stability": func(r ParamResult) float64 { return r.MeanStabilityH },
		"ranges":    func(r ParamResult) float64 { return float64(r.MaxRanges) },
	}
	factorsOf := map[string]func(ParamResult) float64{
		"q":       func(r ParamResult) float64 { return r.Q },
		"factor":  func(r ParamResult) float64 { return r.Factor },
		"cidrmax": func(r ParamResult) float64 { return float64(r.CIDRMax) },
	}
	out := map[string]map[string]metrics.AnovaResult{}
	for mName, mf := range metricsOf {
		out[mName] = map[string]metrics.AnovaResult{}
		for fName, ff := range factorsOf {
			groups := map[float64][]float64{}
			for _, r := range results {
				groups[ff(r)] = append(groups[ff(r)], mf(r))
			}
			var levels []float64
			for l := range groups {
				levels = append(levels, l)
			}
			sort.Float64s(levels)
			var gs [][]float64
			for _, l := range levels {
				gs = append(gs, groups[l])
			}
			if res, err := metrics.OneWayANOVA(gs); err == nil {
				out[mName][fName] = res
			}
		}
	}
	return out
}
