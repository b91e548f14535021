package experiments

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"ipd/internal/core"
	"ipd/internal/eval"
	"ipd/internal/flow"
	"ipd/internal/metrics"
	"ipd/internal/stattime"
)

// Fig2Result is the prefix-stability-duration distribution of Fig. 2 (and
// the §2 headline: "60% of prefixes remain stable for < 1 hour").
type Fig2Result struct {
	// Durations are the completed stable-phase lengths in hours.
	Durations []float64
	// FracUnder 1h / Over6h are the two numbers the paper quotes.
	FracUnder1h float64
	FracOver6h  float64
	// CDF points for plotting.
	CDF [][2]float64
}

// Fig2StabilityDuration reproduces Fig. 2 from the day run's snapshots.
func Fig2StabilityDuration(opts Options) (Fig2Result, error) {
	run, err := RunDay(opts)
	if err != nil {
		return Fig2Result{}, err
	}
	tracker := eval.NewStabilityTracker()
	for _, snap := range run.Snapshots {
		tracker.Observe(snap.At, snap.Infos())
	}
	phases := tracker.Finish()
	// One value per distinct prefix (its mean stable-phase duration): a
	// CDN prefix that flips every 15 minutes contributes one short value,
	// not a hundred of them — Fig. 2 is a per-prefix distribution.
	durations := eval.PerPrefixMeanDurations(phases)
	cdf := metrics.NewCDF(durations)
	res := Fig2Result{
		Durations:   durations,
		FracUnder1h: cdf.At(1.0),
		FracOver6h:  1 - cdf.At(6.0),
		CDF:         cdf.Points(20),
	}
	w := opts.out()
	fprintf(w, "# Fig 2: stability duration per prefix on a link (CDF)\n")
	fprintf(w, "# paper: 60%% stable < 1h, 10%% stable > 6h\n")
	fprintf(w, "prefixes=%d (phases=%d)  P[<1h]=%.2f  P[>6h]=%.2f\n", len(durations), len(phases), res.FracUnder1h, res.FracOver6h)
	for _, p := range res.CDF {
		fprintf(w, "duration_h=%-8.3f cdf=%.3f\n", p[0], p[1])
	}
	return res, nil
}

// Fig3Result holds the ingress-count distributions of Fig. 3: dotted BGP
// next-hop counts vs solid observed ingress-point counts, for ALL / TOP5 /
// TOP20.
type Fig3Result struct {
	// BGP[group] and Observed[group] are CDFs over per-prefix counts.
	BGP      map[string]metrics.CDF
	Observed map[string]metrics.CDF
	// FracSingleObserved is the share of /24s with exactly one observed
	// ingress (paper: ~80% enter through one point).
	FracSingleObserved float64
	// FracSingleBGP is the share of prefixes with one BGP next hop
	// (paper: ~20%).
	FracSingleBGP float64
	// FracBGPOver5 is the share with >5 candidate routes (paper: ~60%).
	FracBGPOver5 float64
}

// Fig3IngressCounts reproduces Fig. 3.
func Fig3IngressCounts(opts Options) (Fig3Result, error) {
	run, err := RunDay(opts)
	if err != nil {
		return Fig3Result{}, err
	}
	scn := run.Scenario
	res := Fig3Result{BGP: map[string]metrics.CDF{}, Observed: map[string]metrics.CDF{}}

	// Observed ingress counts per /24 from the flow data.
	groupCounts := map[string][]float64{}
	collect := func(group string, spread *eval.IngressSpread) {
		var xs []float64
		for _, pp := range spread.Results() {
			xs = append(xs, float64(pp.Ingresses))
		}
		groupCounts[group] = xs
	}
	collect(GroupAll, run.Spread)
	var top5 []float64
	for _, a := range scn.Top(5) {
		for _, pp := range run.SpreadByAS[a.Name].Results() {
			top5 = append(top5, float64(pp.Ingresses))
		}
	}
	groupCounts[GroupTop5] = top5

	single, total := 0, 0
	for _, pp := range run.Spread.Results() {
		total++
		if pp.Ingresses == 1 {
			single++
		}
	}
	if total > 0 {
		res.FracSingleObserved = float64(single) / float64(total)
	}
	for g, xs := range groupCounts {
		res.Observed[g] = metrics.NewCDF(xs)
	}

	// BGP candidate counts from the table at the run midpoint.
	tb := scn.BGPTable(run.Start.Add(run.End.Sub(run.Start) / 2))
	top5Set := map[string]bool{}
	top20Set := map[string]bool{}
	for i, a := range scn.ASes {
		if i < 5 {
			top5Set[a.Name] = true
		}
		if i < 20 {
			top20Set[a.Name] = true
		}
	}
	all := tb.NextHopCounts(nil)
	res.BGP[GroupAll] = metrics.NewCDF(toFloat(all))
	n1, n5 := 0, 0
	for _, c := range all {
		if c == 1 {
			n1++
		}
		if c > 5 {
			n5++
		}
	}
	if len(all) > 0 {
		res.FracSingleBGP = float64(n1) / float64(len(all))
		res.FracBGPOver5 = float64(n5) / float64(len(all))
	}

	w := opts.out()
	fprintf(w, "# Fig 3: ingress router count per prefix (BGP candidates vs observed)\n")
	fprintf(w, "# paper: BGP 20%% single / 60%% >5; traffic: ~80%% single ingress\n")
	fprintf(w, "bgp:      P[=1]=%.2f  P[>5]=%.2f  (n=%d)\n", res.FracSingleBGP, res.FracBGPOver5, len(all))
	fprintf(w, "observed: P[=1]=%.2f  (n=%d /24s)\n", res.FracSingleObserved, total)
	for _, g := range []string{GroupAll, GroupTop5} {
		if c, ok := res.Observed[g]; ok && c.Len() > 0 {
			fprintf(w, "observed[%s]: median=%.0f p90=%.0f\n", g, c.Quantile(0.5), c.Quantile(0.9))
		}
	}
	return res, nil
}

// Fig4Result is the dominant-ingress share CDF of Fig. 4, over prefixes
// with more than one ingress point.
type Fig4Result struct {
	// TopShares holds the dominant-link traffic share per multi-ingress
	// /24 (ALL group).
	TopShares []float64
	// CDF points.
	CDF [][2]float64
	// FracDominant80 is P[top share >= 0.8].
	FracDominant80 float64
	// PerAS has the same CDF per TOP5 AS.
	PerAS map[string]metrics.CDF
}

// Fig4DominantShare reproduces Fig. 4.
func Fig4DominantShare(opts Options) (Fig4Result, error) {
	run, err := RunDay(opts)
	if err != nil {
		return Fig4Result{}, err
	}
	res := Fig4Result{PerAS: map[string]metrics.CDF{}}
	for _, pp := range run.Spread.Results() {
		if pp.Ingresses > 1 {
			res.TopShares = append(res.TopShares, pp.TopShare)
		}
	}
	cdf := metrics.NewCDF(res.TopShares)
	res.CDF = cdf.Points(20)
	if cdf.Len() > 0 {
		res.FracDominant80 = 1 - cdf.At(0.8) + shareAt(res.TopShares, 0.8)
	}
	for name, spread := range run.SpreadByAS {
		var xs []float64
		for _, pp := range spread.Results() {
			if pp.Ingresses > 1 {
				xs = append(xs, pp.TopShare)
			}
		}
		res.PerAS[name] = metrics.NewCDF(xs)
	}
	w := opts.out()
	fprintf(w, "# Fig 4: traffic share of first-ranked ingress per multi-ingress /24\n")
	fprintf(w, "# paper: a dominant ingress point carries the bulk of the traffic\n")
	fprintf(w, "multi-ingress prefixes=%d  P[top>=0.8]=%.2f  median=%.2f\n",
		len(res.TopShares), res.FracDominant80, cdf.Quantile(0.5))
	names := make([]string, 0, len(res.PerAS))
	for n := range res.PerAS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := res.PerAS[n]
		if c.Len() > 0 {
			fprintf(w, "%s: n=%d median_top_share=%.2f\n", n, c.Len(), c.Quantile(0.5))
		}
	}
	return res, nil
}

func shareAt(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x == v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

func toFloat(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Fig5Step is one narrated step of the Fig. 5 walk-through.
type Fig5Step struct {
	At     time.Time
	Event  string
	Detail string
}

// Fig5Walkthrough replays the paper's Fig. 5 example: four ingress points
// in the four /2 quadrants; the engine splits /0 -> /1 -> /2 and classifies
// each quadrant. It uses a dedicated tiny server, not the day run.
func Fig5Walkthrough(opts Options) ([]Fig5Step, error) {
	var steps []Fig5Step
	cfg := core.DefaultConfig()
	cfg.NCidrFactor4 = 0.0005 // n(/0)=33, n(/1)=23, n(/2)=16
	cfg.OnEvent = func(ev core.Event) {
		steps = append(steps, Fig5Step{
			At:     ev.At,
			Event:  ev.Kind.String(),
			Detail: fmt.Sprintf("%s %s", ev.Prefix, ev.Ingress),
		})
	}
	srv, err := core.NewServer(cfg, stattime.DefaultConfig())
	if err != nil {
		return nil, err
	}
	start := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)
	quadrants := []struct {
		src string
		in  flow.Ingress
	}{
		{"10.0.0.0", flow.Ingress{Router: 1, Iface: 1}},  // blue
		{"70.0.0.0", flow.Ingress{Router: 2, Iface: 1}},  // green
		{"140.0.0.0", flow.Ingress{Router: 3, Iface: 1}}, // red
		{"210.0.0.0", flow.Ingress{Router: 4, Iface: 1}}, // yellow
	}
	for ts := start; ts.Before(start.Add(5 * time.Minute)); ts = ts.Add(time.Minute) {
		var batch []flow.Record
		for _, q := range quadrants {
			a := netip.MustParseAddr(q.src).As4()
			for i := 0; i < 20; i++ {
				a[3] = byte(i)
				batch = append(batch, flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: q.in, Bytes: 100, Packets: 1})
			}
		}
		srv.Ingest(batch)
	}
	srv.Finish()
	if err := dropped(srv); err != nil {
		return nil, err
	}
	w := opts.out()
	fprintf(w, "# Fig 5: IPD algorithm example application (split cascade)\n")
	fprintf(w, "# four ingress points in the four /2 quadrants: /0 splits to /1s, then /2s classify\n")
	for _, s := range steps {
		fprintf(w, "t=%s  %-12s %s\n", s.At.Format("15:04:05"), s.Event, s.Detail)
	}
	for _, ri := range srv.Mapped() {
		fprintf(w, "final: %v -> %v (confidence %.2f, samples %.0f)\n", ri.Prefix, ri.Ingress, ri.Confidence, ri.Samples)
	}
	return steps, nil
}
