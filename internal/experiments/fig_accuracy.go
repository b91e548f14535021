package experiments

import (
	"sort"
	"strings"
	"time"

	"ipd/internal/bgp"
	"ipd/internal/core"
	"ipd/internal/eval"
	"ipd/internal/export"
	"ipd/internal/metrics"
	"ipd/internal/topology"
)

// Fig6Result is the per-bin classification accuracy of Fig. 6.
type Fig6Result struct {
	// Bins holds per-bin accuracy per group.
	Bins map[string][]eval.Outcome
	// Mean accuracy per group in the paper's definition — correct flows /
	// all flows, steady state (paper: ALL 91%, TOP20 94%, TOP5 97.4%).
	Mean map[string]float64
	// MeanMapped is correct flows / mapped flows.
	MeanMapped map[string]float64
	// Coverage per group (fraction of flows IPD had a mapping for).
	Coverage map[string]float64
	// FlowByteCorr is the §3.1 flow-vs-byte count correlation (paper:
	// 0.82), justifying the flow-count simplification.
	FlowByteCorr float64
}

// Fig6Accuracy reproduces Fig. 6.
func Fig6Accuracy(opts Options) (Fig6Result, error) {
	run, err := RunDay(opts)
	if err != nil {
		return Fig6Result{}, err
	}
	res := Fig6Result{
		Bins:       run.Outcomes,
		Mean:       map[string]float64{},
		MeanMapped: map[string]float64{},
		Coverage:   map[string]float64{},
	}
	for _, g := range []string{GroupAll, GroupTop20, GroupTop5} {
		res.Mean[g] = run.MeanAccuracy(g)
		res.MeanMapped[g] = run.MeanMappedAccuracy(g)
		res.Coverage[g] = run.MeanCoverage(g)
	}
	res.FlowByteCorr = metrics.Pearson(run.BinVolume, run.BinBytes)

	w := opts.out()
	fprintf(w, "# Fig 6: IPD accuracy vs ground-truth flow data (per 5-min bin)\n")
	fprintf(w, "# paper: ALL avg 91%%, TOP20 94%%, TOP5 97.4%%\n")
	fprintf(w, "mean accuracy: ALL=%.3f TOP20=%.3f TOP5=%.3f\n",
		res.Mean[GroupAll], res.Mean[GroupTop20], res.Mean[GroupTop5])
	fprintf(w, "mapped-only:   ALL=%.3f TOP20=%.3f TOP5=%.3f\n",
		res.MeanMapped[GroupAll], res.MeanMapped[GroupTop20], res.MeanMapped[GroupTop5])
	fprintf(w, "coverage:      ALL=%.3f TOP20=%.3f TOP5=%.3f\n",
		res.Coverage[GroupAll], res.Coverage[GroupTop20], res.Coverage[GroupTop5])
	fprintf(w, "flow/byte-count correlation (design §3.1): %.2f (paper: 0.82)\n", res.FlowByteCorr)
	for i, o := range run.Outcomes[GroupAll] {
		if i%6 != 0 { // print every 30 minutes
			continue
		}
		fprintf(w, "bin=%s ALL=%.3f TOP20=%.3f TOP5=%.3f volume=%.0f\n",
			o.Bin.Format("15:04"),
			o.Accuracy(),
			run.Outcomes[GroupTop20][i].Accuracy(),
			run.Outcomes[GroupTop5][i].Accuracy(),
			run.BinVolume[i])
	}
	return res, nil
}

// Fig7Result is the per-AS miss taxonomy of Fig. 7.
type Fig7Result struct {
	// Misses[AS][kind] is the absolute miss count.
	Misses map[string]map[topology.MissKind]int
	// DistinctSources[AS] is the distinct source-address count among
	// misses (the right plot of Fig. 7).
	DistinctSources map[string]int
}

// Fig7MissTaxonomy reproduces Fig. 7 for the TOP5 ASes.
func Fig7MissTaxonomy(opts Options) (Fig7Result, error) {
	run, err := RunDay(opts)
	if err != nil {
		return Fig7Result{}, err
	}
	res := Fig7Result{
		Misses:          run.MissByKind,
		DistinctSources: map[string]int{},
	}
	for as, srcs := range run.MissSources {
		res.DistinctSources[as] = len(srcs)
	}
	w := opts.out()
	fprintf(w, "# Fig 7: IPD misclassifications for TOP5 ASes by type\n")
	fprintf(w, "# paper: AS3/AS4 dominated by PoP misses, AS1 by interface misses\n")
	names := sortedKeys(res.Misses)
	for _, as := range names {
		m := res.Misses[as]
		fprintf(w, "%s: interface=%d router=%d pop=%d distinct_srcs=%d\n",
			as, m[topology.MissInterface], m[topology.MissRouter], m[topology.MissPoP],
			res.DistinctSources[as])
	}
	return res, nil
}

// Fig8Result is the per-AS miss timeline of Fig. 8.
type Fig8Result struct {
	// Timeline[AS][bin] is the miss count in that validation bin.
	Timeline map[string][]int
	// VolumeCorr[AS] is the correlation between the AS's miss timeline
	// and the total traffic volume (paper: 0.88-0.99 for AS4's CDN
	// artifacts).
	VolumeCorr map[string]float64
	// MaintenanceMissRatio compares AS1's mean per-bin misses inside the
	// maintenance windows against outside (the 11 AM / 11 PM story);
	// MaintenancePeak is true when the ratio exceeds 1.2.
	MaintenanceMissRatio float64
	MaintenancePeak      bool
}

// Fig8MissTimeline reproduces Fig. 8.
func Fig8MissTimeline(opts Options) (Fig8Result, error) {
	run, err := RunDay(opts)
	if err != nil {
		return Fig8Result{}, err
	}
	res := Fig8Result{Timeline: run.MissTimeline, VolumeCorr: map[string]float64{}}
	vol := run.BinVolume
	for as, tl := range run.MissTimeline {
		xs := make([]float64, len(vol))
		for i := 0; i < len(tl) && i < len(xs); i++ {
			xs[i] = float64(tl[i])
		}
		res.VolumeCorr[as] = metrics.Pearson(xs, vol)
	}

	// Does AS1's miss rate peak inside its maintenance windows?
	if tl, ok := run.MissTimeline["AS1"]; ok && len(run.Scenario.Maintenance) > 0 {
		inWin, outWin := 0.0, 0.0
		inN, outN := 0, 0
		for i, c := range tl {
			binStart := run.Start.Add(time.Duration(i) * opts.Bin)
			covered := false
			for _, m := range run.Scenario.Maintenance {
				if m.Covers(binStart) {
					covered = true
				}
			}
			if covered {
				inWin += float64(c)
				inN++
			} else {
				outWin += float64(c)
				outN++
			}
		}
		if inN > 0 && outN > 0 && outWin > 0 {
			res.MaintenanceMissRatio = (inWin / float64(inN)) / (outWin / float64(outN))
			res.MaintenancePeak = res.MaintenanceMissRatio > 1.2
		}
	}

	w := opts.out()
	fprintf(w, "# Fig 8: IPD misclassifications of the TOP5 ASes over time\n")
	fprintf(w, "# paper: AS1 spikes at maintenance (11AM/11PM); AS3/AS4 diurnal\n")
	for _, as := range sortedKeys(res.Timeline) {
		fprintf(w, "%s: volume_corr=%.2f total=%d\n", as, res.VolumeCorr[as], sumInts(res.Timeline[as]))
	}
	fprintf(w, "AS1 maintenance in/out miss ratio: %.2f (peak detected: %v)\n",
		res.MaintenanceMissRatio, res.MaintenancePeak)
	return res, nil
}

// Fig9Result is the IPD-vs-BGP range size distribution of Fig. 9.
type Fig9Result struct {
	// IPDShare[bits] is the share of mapped IPD ranges with that length;
	// BGPShare[bits] the share of BGP prefixes.
	IPDShare map[int]float64
	BGPShare map[int]float64
	// BGP24Share is the /24 share in BGP (paper: >50%).
	BGP24Share float64
}

// Fig9RangeSizes reproduces Fig. 9 from the final day-run snapshot.
func Fig9RangeSizes(opts Options) (Fig9Result, error) {
	run, err := RunDay(opts)
	if err != nil {
		return Fig9Result{}, err
	}
	res := Fig9Result{IPDShare: map[int]float64{}, BGPShare: map[int]float64{}}
	if len(run.Snapshots) == 0 {
		return res, nil
	}
	final := run.Snapshots[len(run.Snapshots)-1]
	agg := eval.AggregateRanges(final.Infos())
	totalIPD := float64(agg.TotalCount())
	for bits, c := range agg.Count {
		res.IPDShare[bits] = float64(c) / totalIPD
	}
	tb := run.Scenario.BGPTable(final.At)
	nBGP := 0
	bgpCount := map[int]int{}
	tb.Walk(func(r bgp.Route) bool {
		bgpCount[r.Prefix.Bits()]++
		nBGP++
		return true
	})
	for bits, c := range bgpCount {
		res.BGPShare[bits] = float64(c) / float64(nBGP)
	}
	res.BGP24Share = res.BGPShare[24]

	w := opts.out()
	fprintf(w, "# Fig 9: distribution of IPD range sizes vs BGP prefix sizes\n")
	fprintf(w, "# paper: IPD ranges are traffic-shaped and unrelated to BGP sizes\n")
	var lengths []int
	seen := map[int]bool{}
	for b := range res.IPDShare {
		if !seen[b] {
			seen[b] = true
			lengths = append(lengths, b)
		}
	}
	for b := range res.BGPShare {
		if !seen[b] {
			seen[b] = true
			lengths = append(lengths, b)
		}
	}
	sort.Ints(lengths)
	for _, b := range lengths {
		fprintf(w, "/%d: ipd=%.3f bgp=%.3f\n", b, res.IPDShare[b], res.BGPShare[b])
	}
	return res, nil
}

// Table1 prints the default parameter table (Table 1 of the paper).
func Table1(opts Options) [][3]string {
	def := core.DefaultConfig()
	rows := [][3]string{
		{"cidr_max", "/28, /48", "max. IPD prefix length"},
		{"n_cidr factor", "64, 24", "minimal sample factor: n = f*sqrt(2^(32-s))"},
		{"q", "0.95", "error margin"},
		{"t", "60s", "time bucket length"},
		{"e", "120s", "expiration time"},
		{"decay", "1 - 0.9/((age/t)+1)", "factor to reduce outdated IPD ranges"},
	}
	w := opts.out()
	fprintf(w, "# Table 1: default IPD parameters\n")
	for _, row := range rows {
		fprintf(w, "%-14s %-22s %s\n", row[0], row[1], row[2])
	}
	fprintf(w, "(DefaultConfig: cidr_max=%d/%d factors=%v/%v q=%v t=%v e=%v)\n",
		def.CIDRMax4, def.CIDRMax6, def.NCidrFactor4, def.NCidrFactor6, def.Q, def.T, def.E)
	return rows
}

// Table3Rows renders sample raw-output rows (Appendix B / Table 3) from the
// final day-run snapshot.
func Table3Rows(opts Options, n int) ([]string, error) {
	run, err := RunDay(opts)
	if err != nil {
		return nil, err
	}
	if len(run.Snapshots) == 0 {
		return nil, nil
	}
	final := run.Snapshots[len(run.Snapshots)-1]
	var lines []string
	for i, ri := range final.Infos() {
		if i >= n {
			break
		}
		row := export.FromRangeInfo(final.At, ri, run.Scenario.Topo.Label)
		lines = append(lines, row.Encode())
	}
	w := opts.out()
	fprintf(w, "# Table 3: raw IPD output (timestamp ip s_ingress s_ipcount n_cidr range ingress)\n")
	fprintf(w, "%s\n", strings.Join(lines, "\n"))
	return lines, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
