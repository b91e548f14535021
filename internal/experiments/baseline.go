package experiments

import (
	"time"

	"ipd/internal/baseline"
	"ipd/internal/core"
	"ipd/internal/eval"
	"ipd/internal/flow"
	"ipd/internal/trafficgen"
)

// BaselineResult compares IPD against the two comparison strategies of the
// paper on the same flow stream and methodology.
type BaselineResult struct {
	// Accuracy is correct/all-flows per strategy ("ipd", "bgp",
	// "static24"); MappedAccuracy is correct/mapped; Coverage mapped/all.
	Accuracy       map[string]float64
	MappedAccuracy map[string]float64
	Coverage       map[string]float64
	// StaticDecay is the static baseline's accuracy in the first vs the
	// last validation hour — the frozen map decays as CDN mappings churn.
	StaticFirstHour float64
	StaticLastHour  float64
	// StaticMonthLater scores the frozen map against traffic 30 days
	// later: era drift and address churn have moved a chunk of the space
	// (the §6 argument against training-window approaches).
	StaticMonthLater float64
}

// BaselineComparison trains a TIPSY-style static /24 map on the first hour,
// then validates IPD, the BGP path-symmetry shortcut, and the frozen static
// map against the following hours of ground-truth flows, all with the §5.1
// LPM methodology. It demonstrates the paper's two claims: BGP cannot
// predict ingress (§3.1/§5.5) and static partitioning decays against
// ingress dynamics (§6 vs TIPSY).
func BaselineComparison(opts Options) (BaselineResult, error) {
	spec := trafficgen.DefaultSpec()
	spec.Seed = opts.Seed
	scn, err := trafficgen.NewScenario(spec)
	if err != nil {
		return BaselineResult{}, err
	}
	trainer, err := baseline.NewStaticTrainer(24, scn.Topo)
	if err != nil {
		return BaselineResult{}, err
	}

	hours := opts.Hours
	if hours < 3 {
		hours = 3
	}
	start := scn.Start
	trainEnd := start.Add(time.Hour)
	end := start.Add(time.Duration(hours) * time.Hour)
	gen := trafficgen.GenConfig{
		FlowsPerMinute: opts.FlowsPerMinute,
		NoiseFraction:  0.002,
		Seed:           opts.Seed,
		Diurnal:        true,
	}

	bgpPred := baseline.NewBGPPredictor(scn.BGPTable(start), scn.Topo)
	var staticPred *baseline.StaticPredictor

	outcomes := map[string]*eval.Outcome{
		"ipd": {}, "bgp": {}, "static24": {},
	}
	var staticHourly []eval.Outcome
	curHour := -1

	_, err = RunBins(opts.engineConfig(scn.Topo), opts.Bin,
		func(yield func(flow.Record) bool) error {
			return scn.Stream(start, end, gen, func(rec flow.Record) bool {
				if rec.Ts.Before(trainEnd) {
					trainer.Observe(rec)
				}
				return yield(rec)
			})
		},
		func(b time.Time, recs []flow.Record, mapped []core.RangeInfo) {
			binStart := b.Add(-opts.Bin)
			if binStart.Before(trainEnd) {
				return // warm-up/training window is not scored
			}
			if staticPred == nil {
				staticPred = trainer.Freeze()
			}
			ipdPred := eval.NewPredictor(eval.Table(mapped), scn.Topo)
			if hour := int(binStart.Sub(trainEnd) / time.Hour); hour != curHour {
				curHour = hour
				staticHourly = append(staticHourly, eval.Outcome{Bin: binStart})
			}
			for _, rec := range recs {
				k, m := ipdPred.Classify(rec)
				outcomes["ipd"].Accumulate(k, m)
				k, m = bgpPred.Classify(rec)
				outcomes["bgp"].Accumulate(k, m)
				k, m = staticPred.Classify(rec)
				outcomes["static24"].Accumulate(k, m)
				staticHourly[len(staticHourly)-1].Accumulate(k, m)
			}
		})
	if err != nil {
		return BaselineResult{}, err
	}

	res := BaselineResult{
		Accuracy:       map[string]float64{},
		MappedAccuracy: map[string]float64{},
		Coverage:       map[string]float64{},
	}
	for name, o := range outcomes {
		if o.Flows > 0 {
			res.Accuracy[name] = float64(o.Correct) / float64(o.Flows)
		}
		res.MappedAccuracy[name] = o.Accuracy()
		res.Coverage[name] = o.Coverage()
	}
	if n := len(staticHourly); n > 0 {
		first, last := staticHourly[0], staticHourly[n-1]
		if first.Flows > 0 {
			res.StaticFirstHour = float64(first.Correct) / float64(first.Flows)
		}
		if last.Flows > 0 {
			res.StaticLastHour = float64(last.Correct) / float64(last.Flows)
		}
	}

	// Probe the frozen static map against a 30-minute window one month
	// later (ground-truth flows only; no engine needed).
	var later eval.Outcome
	laterStart := trainEnd.Add(30 * 24 * time.Hour)
	err = scn.Stream(laterStart, laterStart.Add(30*time.Minute), gen, func(rec flow.Record) bool {
		k, m := staticPred.Classify(rec)
		later.Accumulate(k, m)
		return true
	})
	if err != nil {
		return BaselineResult{}, err
	}
	if later.Flows > 0 {
		res.StaticMonthLater = float64(later.Correct) / float64(later.Flows)
	}

	w := opts.out()
	fprintf(w, "# Baseline comparison: IPD vs BGP path-symmetry vs static /24 map\n")
	fprintf(w, "# paper: BGP is not an option (§3.1); static partitioning is suboptimal (§5.2, §6)\n")
	for _, name := range []string{"ipd", "bgp", "static24"} {
		fprintf(w, "%-9s accuracy=%.3f mapped_only=%.3f coverage=%.3f\n",
			name, res.Accuracy[name], res.MappedAccuracy[name], res.Coverage[name])
	}
	fprintf(w, "static24 decay: first hour %.3f -> last hour %.3f -> one month later %.3f\n",
		res.StaticFirstHour, res.StaticLastHour, res.StaticMonthLater)
	return res, nil
}
