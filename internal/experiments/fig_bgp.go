package experiments

import (
	"net/netip"
	"time"

	"ipd/internal/eval"
	"ipd/internal/topology"
	"ipd/internal/trafficgen"
)

// SpecificityResult is the §5.5 IPD-vs-BGP prefix alignment with shares.
type SpecificityResult struct {
	eval.SpecificityResult
	ExactShare        float64
	MoreSpecificShare float64
	LessSpecificShare float64
}

// Specificity55 reproduces the §5.5 prefix-correlation numbers (paper: 91%
// of IPD ranges more specific than BGP, 1% exact, 8% less specific).
func Specificity55(opts Options) (SpecificityResult, error) {
	run, err := RunDay(opts)
	if err != nil {
		return SpecificityResult{}, err
	}
	if len(run.Snapshots) == 0 {
		return SpecificityResult{}, nil
	}
	final := run.Snapshots[len(run.Snapshots)-1]
	tb := run.Scenario.BGPTable(final.At)
	raw := eval.Specificity(final.Infos(), tb)
	res := SpecificityResult{SpecificityResult: raw}
	var unrelated float64
	if n := float64(raw.Total()); n > 0 {
		res.ExactShare = float64(raw.Exact) / n
		res.MoreSpecificShare = float64(raw.MoreSpecific) / n
		res.LessSpecificShare = float64(raw.LessSpecific) / n
		unrelated = float64(raw.Unrelated) / n
	}
	w := opts.out()
	fprintf(w, "# §5.5: BGP and IPD prefix correlation\n")
	fprintf(w, "# paper: 91%% more specific / 1%% exact / 8%% less specific\n")
	fprintf(w, "more_specific=%.2f exact=%.2f less_specific=%.2f unrelated=%.2f (n=%d)\n",
		res.MoreSpecificShare, res.ExactShare, res.LessSpecificShare,
		unrelated, raw.Total())
	return res, nil
}

// Fig16Result is the symmetry-over-time series.
type Fig16Result struct {
	Times []time.Time
	// Series[group][i] is the symmetry ratio of the group at Times[i].
	Series map[string][]float64
	// Mean[group] is the time-averaged ratio (paper: ALL 62%, TOP20 61%,
	// TOP5 77%, tier-1 91%).
	Mean map[string]float64
}

// groupOfFactory builds the prefix->groups classifier for a scenario.
func groupOfFactory(scn *trafficgen.Scenario) func(netip.Prefix) []string {
	rank := map[*trafficgen.AS]int{}
	for i, a := range scn.ASes {
		rank[a] = i
	}
	return func(p netip.Prefix) []string {
		a, ok := scn.ASOf(p.Addr())
		if !ok {
			return nil
		}
		groups := []string{GroupAll}
		if rank[a] < 5 {
			groups = append(groups, GroupTop5)
		}
		if rank[a] < 20 {
			groups = append(groups, GroupTop20)
		}
		if a.Tier1 {
			groups = append(groups, GroupTier1)
		}
		return groups
	}
}

// Fig16Symmetry reproduces Fig. 16: compare each mapped range's ingress
// router with BGP's egress router over the multi-year horizon.
func Fig16Symmetry(opts Options, points int, every time.Duration) (Fig16Result, error) {
	run, err := RunLong(opts, points, every)
	if err != nil {
		return Fig16Result{}, err
	}
	res := Fig16Result{Series: map[string][]float64{}, Mean: map[string]float64{}}
	groupOf := groupOfFactory(run.Scenario)
	sums := map[string]float64{}
	counts := map[string]int{}
	for i := range run.Snaps {
		tb := run.Scenario.BGPTable(run.Times[i])
		groups := eval.Symmetry(run.Snaps[i], tb, groupOf)
		res.Times = append(res.Times, run.Times[i])
		for _, g := range []string{GroupAll, GroupTop20, GroupTop5, GroupTier1} {
			ratio := 0.0
			if r, ok := groups[g]; ok {
				ratio = r.Ratio()
			}
			res.Series[g] = append(res.Series[g], ratio)
			sums[g] += ratio
			counts[g]++
		}
	}
	for g, s := range sums {
		res.Mean[g] = s / float64(counts[g])
	}
	w := opts.out()
	fprintf(w, "# Fig 16: traffic symmetry ratios over time (ingress router == BGP egress router)\n")
	fprintf(w, "# paper means: ALL 62%%, TOP20 61%%, TOP5 77%%, tier-1 91%%\n")
	fprintf(w, "means: ALL=%.2f TOP20=%.2f TOP5=%.2f TIER1=%.2f\n",
		res.Mean[GroupAll], res.Mean[GroupTop20], res.Mean[GroupTop5], res.Mean[GroupTier1])
	for i, ts := range res.Times {
		fprintf(w, "t=%s ALL=%.2f TOP20=%.2f TOP5=%.2f TIER1=%.2f\n",
			ts.Format("2006-01-02"),
			res.Series[GroupAll][i], res.Series[GroupTop20][i],
			res.Series[GroupTop5][i], res.Series[GroupTier1][i])
	}
	return res, nil
}

// Fig17Result is the peering-violation trend.
type Fig17Result struct {
	Times []time.Time
	// Counts[i] is the number of violating mapped prefixes at Times[i];
	// PerPeer[i] breaks it down by tier-1 peer.
	Counts  []int
	PerPeer []map[topology.ASN]int
	// GrowthLateOverEarly compares the mean count of the last third
	// against the first third (paper: +50% from Sep 2019, x2 by 2020).
	GrowthLateOverEarly float64
	// IndirectShare is the mean share of tier-1 mapped prefixes entering
	// indirectly (paper: ~9%).
	IndirectShare float64
}

// Fig17Violations reproduces Fig. 17 over the longitudinal series.
func Fig17Violations(opts Options, points int, every time.Duration) (Fig17Result, error) {
	run, err := RunLong(opts, points, every)
	if err != nil {
		return Fig17Result{}, err
	}
	scn := run.Scenario
	ownerOf := func(p netip.Prefix) (topology.ASN, bool) {
		a, ok := scn.ASOf(p.Addr())
		if !ok {
			return 0, false
		}
		return a.ASN, true
	}
	isT1 := func(asn topology.ASN) bool {
		a, ok := scn.ASByNumber(asn)
		return ok && a.Tier1
	}
	var res Fig17Result
	var indirectShares []float64
	for i := range run.Snaps {
		vs := eval.DetectViolations(run.Snaps[i], scn.Topo, ownerOf, isT1)
		per := map[topology.ASN]int{}
		for _, v := range vs {
			per[v.Peer]++
		}
		res.Times = append(res.Times, run.Times[i])
		res.Counts = append(res.Counts, len(vs))
		res.PerPeer = append(res.PerPeer, per)

		tier1Total := 0
		for _, ri := range run.Snaps[i] {
			if asn, ok := ownerOf(ri.Prefix); ok && isT1(asn) {
				tier1Total++
			}
		}
		if tier1Total > 0 {
			indirectShares = append(indirectShares, float64(len(vs))/float64(tier1Total))
		}
	}
	if n := len(res.Counts); n >= 3 {
		third := n / 3
		early, late := 0.0, 0.0
		for i := 0; i < third; i++ {
			early += float64(res.Counts[i])
		}
		for i := n - third; i < n; i++ {
			late += float64(res.Counts[i])
		}
		if early > 0 {
			res.GrowthLateOverEarly = late / early
		}
	}
	for _, s := range indirectShares {
		res.IndirectShare += s
	}
	if len(indirectShares) > 0 {
		res.IndirectShare /= float64(len(indirectShares))
	}
	w := opts.out()
	fprintf(w, "# Fig 17: tier-1 peering agreement violations over time\n")
	fprintf(w, "# paper: ~9%% of tier-1 prefixes indirect; +50%% from 2019-09, x2 by 2020\n")
	for i, ts := range res.Times {
		fprintf(w, "t=%s violations=%d peers=%d\n", ts.Format("2006-01-02"), res.Counts[i], len(res.PerPeer[i]))
	}
	fprintf(w, "indirect share=%.3f growth(late/early)=%.2f\n", res.IndirectShare, res.GrowthLateOverEarly)
	return res, nil
}
