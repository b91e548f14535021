package experiments

import (
	"io"
	"net/netip"
	"sort"
	"sync"
	"time"

	"ipd/internal/core"
	"ipd/internal/eval"
	"ipd/internal/flow"
	"ipd/internal/metrics"
	"ipd/internal/topology"
	"ipd/internal/trafficgen"
)

// LongRun is a series of IPD snapshots across a multi-year virtual horizon.
// Each snapshot is produced by a fresh server converging on a prime-time
// traffic window — the virtual-time compression that stands in for reading
// the paper's six-year output archive (see DESIGN.md §3).
type LongRun struct {
	Opts     Options
	Scenario *trafficgen.Scenario
	// Times are the snapshot instants (20:00 prime time, spaced by the
	// requested interval).
	Times []time.Time
	// Snaps[i] is the mapped state at Times[i].
	Snaps [][]core.RangeInfo
}

type longKey struct {
	opts   Options
	points int
	every  time.Duration
}

var (
	longMu    sync.Mutex
	longCache = map[longKey]*LongRun{}
)

// RunLong executes (or returns cached) the longitudinal snapshot series:
// points snapshots spaced `every` apart, starting 200 days into the
// scenario (the paper's t1 is 2018-07-20 for a 2018-01-01 archive start).
func RunLong(opts Options, points int, every time.Duration) (*LongRun, error) {
	key := longKey{opts: opts, points: points, every: every}
	key.opts.Writer = nil
	longMu.Lock()
	defer longMu.Unlock()
	if r, ok := longCache[key]; ok {
		return r, nil
	}
	r, err := runLong(opts, points, every)
	if err != nil {
		return nil, err
	}
	longCache[key] = r
	return r, nil
}

func runLong(opts Options, points int, every time.Duration) (*LongRun, error) {
	spec := trafficgen.DefaultSpec()
	spec.Seed = opts.Seed
	scn, err := trafficgen.NewScenario(spec)
	if err != nil {
		return nil, err
	}
	run := &LongRun{Opts: opts, Scenario: scn}
	t1 := scn.Start.Add(200*24*time.Hour + 20*time.Hour) // 8 PM prime time
	for i := 0; i < points; i++ {
		ts := t1.Add(time.Duration(i) * every)
		mapped, err := snapshotAt(scn, opts, ts)
		if err != nil {
			return nil, err
		}
		run.Times = append(run.Times, ts)
		run.Snaps = append(run.Snaps, mapped)
	}
	return run, nil
}

// snapshotAt runs a fresh server over a 35-minute convergence window ending
// at ts and returns the ranges its last bin ends with (the split cascade
// descends one level per cycle, so /0 -> /28 needs ~28 cycles plus
// settling).
func snapshotAt(scn *trafficgen.Scenario, opts Options, ts time.Time) ([]core.RangeInfo, error) {
	gen := trafficgen.GenConfig{
		FlowsPerMinute: opts.FlowsPerMinute,
		NoiseFraction:  0.002,
		Seed:           opts.Seed ^ ts.Unix(),
		Diurnal:        false, // the window sits at prime time by construction
		IPv6Fraction:   0.1,
	}
	var mapped []core.RangeInfo
	_, err := RunBins(opts.engineConfig(scn.Topo), opts.Bin,
		func(yield func(flow.Record) bool) error { return scn.Stream(ts.Add(-35*time.Minute), ts, gen, yield) },
		func(_ time.Time, _ []flow.Record, m []core.RangeInfo) { mapped = m })
	if err != nil {
		return nil, err
	}
	// Strip the counter maps: snapshots are kept for a long series.
	for i := range mapped {
		mapped[i].Counters = nil
	}
	return mapped, nil
}

// Fig10Result is the longitudinal matching/stable analysis of §5.3.1.
type Fig10Result struct {
	Times    []time.Time
	Matching []float64
	Stable   []float64
}

// Fig10Longitudinal reproduces Fig. 10: compare the t1 snapshot against all
// later snapshots. Paper shape: matching drops to a plateau around 60%;
// stable drops further and keeps declining toward ~0 after 2+ years.
func Fig10Longitudinal(opts Options, points int, every time.Duration) (Fig10Result, error) {
	run, err := RunLong(opts, points, every)
	if err != nil {
		return Fig10Result{}, err
	}
	var res Fig10Result
	if len(run.Snaps) == 0 {
		return res, nil
	}
	t1 := run.Snaps[0]
	for i := 1; i < len(run.Snaps); i++ {
		ms := eval.MatchStable(t1, run.Snaps[i])
		res.Times = append(res.Times, run.Times[i])
		res.Matching = append(res.Matching, ms.Matching)
		res.Stable = append(res.Stable, ms.Stable)
	}
	w := opts.out()
	fprintf(w, "# Fig 10: longitudinal stability (t1 = day 200, 8 PM)\n")
	fprintf(w, "# paper: matching drops to ~60%% plateau; stable declines toward 0\n")
	for i := range res.Times {
		fprintf(w, "t2=%s matching=%.3f stable=%.3f\n",
			res.Times[i].Format("2006-01-02"), res.Matching[i], res.Stable[i])
	}
	return res, nil
}

// FigDaytimeResult is the by-hour aggregation behind Figs. 11 and 12.
type FigDaytimeResult struct {
	// Hours are the sampled hours of day (0..23).
	Hours []int
	// PrefixCount[h] is the number of mapped prefixes at hour h,
	// normalized to the daily maximum.
	PrefixCount []float64
	// MappedSpace[h] is the covered address space, normalized likewise.
	MappedSpace []float64
	// ByMask[h][bits] is the prefix count per mask at hour h.
	ByMask []map[int]int
}

// figDaytime aggregates mapped state per hour for the given AS filter
// (nil = TOP5).
func figDaytime(opts Options, filter func(netip.Prefix) bool, label string) (FigDaytimeResult, error) {
	run, err := RunDay(opts)
	if err != nil {
		return FigDaytimeResult{}, err
	}
	var res FigDaytimeResult
	// Bucket snapshots by hour of day; use the last snapshot of each hour.
	byHour := map[int]Snapshot{}
	for _, snap := range run.Snapshots {
		byHour[snap.At.Hour()] = snap
	}
	var hours []int
	for h := range byHour {
		hours = append(hours, h)
	}
	sort.Ints(hours)
	maxCount, maxSpace := 0.0, 0.0
	var counts, spaces []float64
	for _, h := range hours {
		infos := byHour[h].Infos()
		var kept []core.RangeInfo
		for _, ri := range infos {
			if filter == nil || filter(ri.Prefix) {
				kept = append(kept, ri)
			}
		}
		agg := eval.AggregateRanges(kept)
		c, s := float64(agg.TotalCount()), agg.TotalSpace()
		counts = append(counts, c)
		spaces = append(spaces, s)
		if c > maxCount {
			maxCount = c
		}
		if s > maxSpace {
			maxSpace = s
		}
		byMask := map[int]int{}
		for bits, n := range agg.Count {
			byMask[bits] = n
		}
		res.ByMask = append(res.ByMask, byMask)
	}
	res.Hours = hours
	for i := range counts {
		if maxCount > 0 {
			res.PrefixCount = append(res.PrefixCount, counts[i]/maxCount)
		} else {
			res.PrefixCount = append(res.PrefixCount, 0)
		}
		if maxSpace > 0 {
			res.MappedSpace = append(res.MappedSpace, spaces[i]/maxSpace)
		} else {
			res.MappedSpace = append(res.MappedSpace, 0)
		}
	}
	w := opts.out()
	fprintf(w, "# %s\n", label)
	for i, h := range res.Hours {
		fprintf(w, "hour=%02d prefixes=%.2f space=%.2f\n", h, res.PrefixCount[i], res.MappedSpace[i])
	}
	return res, nil
}

// Fig11Daytime reproduces Fig. 11 (TOP5 ASes): mapped space stays flat over
// the day while the number of prefixes swings with traffic.
func Fig11Daytime(opts Options) (FigDaytimeResult, error) {
	run, err := RunDay(opts)
	if err != nil {
		return FigDaytimeResult{}, err
	}
	top5 := map[*trafficgen.AS]bool{}
	for _, a := range run.Scenario.Top(5) {
		top5[a] = true
	}
	filter := func(p netip.Prefix) bool {
		a, ok := run.Scenario.ASOf(p.Addr())
		return ok && top5[a]
	}
	return figDaytime(opts, filter, "Fig 11: network size by daytime, TOP5 ASes (normalized)")
}

// Fig12CDNBehavior reproduces Fig. 12: the same aggregation for the AS4 CDN
// only, where the diurnal consolidation is strongest.
func Fig12CDNBehavior(opts Options) (FigDaytimeResult, error) {
	run, err := RunDay(opts)
	if err != nil {
		return FigDaytimeResult{}, err
	}
	as4 := run.Scenario.ASes[3]
	filter := func(p netip.Prefix) bool {
		a, ok := run.Scenario.ASOf(p.Addr())
		return ok && a == as4
	}
	return figDaytime(opts, filter, "Fig 12: network size by daytime, AS4 (CDN)")
}

// Fig13Event is one row of the reaction-to-change case study.
type Fig13Event struct {
	At      time.Time
	Kind    string
	Prefix  string
	Ingress flow.Ingress
	// Detail is core.Event.Detail: for an alert event, the alert kind.
	Detail string
}

// Fig13Fig14Result carries the case-study timeline plus the per-cycle
// counter/confidence series of the focus /24 (Fig. 14).
type Fig13Fig14Result struct {
	Events []Fig13Event
	// Focus series for x.y.197.0/24-equivalent.
	FocusPrefix  netip.Prefix
	Times        []time.Time
	Samples      []float64
	Confidence   []float64
	Classified   []bool
	IngressAtEnd flow.Ingress
	// ChangeDetected is true if the engine reclassified the focus prefix
	// to the post-maintenance interface.
	ChangeDetected bool
}

// AlertEvents counts the alert events of the given kind in the event log:
// how many were raised and how many cleared.
func (r Fig13Fig14Result) AlertEvents(kind core.AlertKind) (raised, cleared int) {
	for _, ev := range r.Events {
		if ev.Detail != kind.String() {
			continue
		}
		switch ev.Kind {
		case core.EventAlertRaised.String():
			raised++
		case core.EventAlertCleared.String():
			cleared++
		}
	}
	return raised, cleared
}

// Fig13ReactionToChange reproduces the §5.3.4 case study: ranges inside a
// /23 with two ingress points; mid-run, a router maintenance moves one
// interface's traffic; the affected range is invalidated and reclassified at
// the new interface (Figs. 13 and 14).
func Fig13ReactionToChange(opts Options) (Fig13Fig14Result, error) {
	cfg := core.DefaultConfig()
	cfg.NCidrFactor4 = 0.001
	return ReactionToChange(cfg, opts.out())
}

// ReactionToChange runs the Figs 13/14 scenario on a bare engine built from
// cfg and prints the event log to w. cfg's OnEvent and OnCycle hooks stay
// attached (every event reaches OnEvent after the result records it), so a
// caller can watch the run, for example with a timeline collector.
func ReactionToChange(cfg core.Config, w io.Writer) (Fig13Fig14Result, error) {
	var res Fig13Fig14Result
	onEvent := cfg.OnEvent
	cfg.OnEvent = func(ev core.Event) {
		res.Events = append(res.Events, Fig13Event{At: ev.At, Kind: ev.Kind.String(), Prefix: ev.Prefix, Ingress: ev.Ingress, Detail: ev.Detail})
		if onEvent != nil {
			onEvent(ev)
		}
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return res, err
	}

	// x.y.196.0/23 world: 197.0/24 and 196.0/25 enter via A; 196.128/26
	// via B. After the "maintenance" instant, A's traffic moves to C.
	base := time.Date(2020, 7, 10, 0, 0, 0, 0, time.UTC)
	maint := base.Add(4 * 24 * time.Hour) // 2020-07-14
	end := base.Add(8 * 24 * time.Hour)
	inA := flow.Ingress{Router: 1, Iface: 1}
	inB := flow.Ingress{Router: 2, Iface: 3}
	inC := flow.Ingress{Router: 1, Iface: 7} // post-maintenance interface
	focus := netip.MustParsePrefix("203.0.196.0/23")
	res.FocusPrefix = netip.MustParsePrefix("203.0.197.0/24")

	feed := func(ts time.Time, cidr string, in flow.Ingress, n int) {
		p := netip.MustParsePrefix(cidr)
		a4 := p.Addr().As4()
		span := 1 << uint(32-p.Bits())
		for i := 0; i < n; i++ {
			off := i % span
			b := a4
			b[3] = byte(int(a4[3]) + off%256)
			b[2] = byte(int(a4[2]) + off/256)
			eng.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(b), In: in, Bytes: 500, Packets: 1})
		}
	}

	// Drive minute by minute across 8 virtual days: converge, hit the
	// change, reconverge. The Fig. 14 series samples every 10 minutes.
	minute := 0
	for ts := base; ts.Before(end); ts = ts.Add(time.Minute) {
		aIngress := inA
		if !ts.Before(maint) {
			aIngress = inC
		}
		feed(ts, "203.0.197.0/24", aIngress, 40)
		feed(ts, "203.0.196.0/25", aIngress, 25)
		feed(ts, "203.0.196.128/26", inB, 15)
		eng.AdvanceTo(ts.Add(time.Minute))

		if minute%10 == 0 {
			if ri, ok := eng.Range(res.FocusPrefix.Addr()); ok {
				res.Times = append(res.Times, ts)
				res.Samples = append(res.Samples, ri.Samples)
				res.Confidence = append(res.Confidence, ri.Confidence)
				res.Classified = append(res.Classified, ri.Classified)
			}
		}
		minute++
	}
	if ri, ok := eng.Range(res.FocusPrefix.Addr()); ok {
		res.IngressAtEnd = ri.Ingress
		res.ChangeDetected = ri.Classified && ri.Ingress == inC
	}

	fprintf(w, "# Fig 13/14: reaction to change within %v (maintenance at %s)\n", focus, maint.Format("2006-01-02"))
	fprintf(w, "# paper: ingress change detected quickly; range reclassified at the new interface\n")
	for _, ev := range res.Events {
		fprintf(w, "%s %-12s %-20s %v\n", ev.At.Format("01-02 15:04"), ev.Kind, ev.Prefix, ev.Ingress)
	}
	fprintf(w, "focus %v final ingress: %v (change detected: %v)\n", res.FocusPrefix, res.IngressAtEnd, res.ChangeDetected)
	return res, nil
}

// Fig15Result compares elephant-range stability against the baseline.
type Fig15Result struct {
	// ElephantDurations / AllDurations in hours (from the weekly
	// longitudinal series, so units are large).
	ElephantDurations []float64
	AllDurations      []float64
	// MedianRatio is median(elephant)/median(all) (paper: months vs
	// <1 hour — a very large ratio).
	MedianRatio float64
	// ElephantCount is the number of top-1% ranges considered.
	ElephantCount int
	// PNIShare / Top5Share / Top20Share characterize the elephants (§5.4:
	// 33.4% PNI links, 10.9% TOP5, 26.3% TOP20; most elephants are NOT
	// from the top ASes).
	PNIShare   float64
	Top5Share  float64
	Top20Share float64
}

// Fig15Elephants reproduces Fig. 15 on the day run's 5-minute snapshots:
// the top 1% of ranges by peak sample counter are far more stable than the
// baseline. (The paper's elephants stay stable for months; the horizon here
// is the 25-hour trace, so stability saturates at the run length — the
// contrast against the sub-hour baseline is the preserved shape.) The
// points/every arguments are accepted for interface symmetry with the other
// longitudinal figures and ignored.
func Fig15Elephants(opts Options, points int, every time.Duration) (Fig15Result, error) {
	_, _ = points, every
	run, err := RunDay(opts)
	if err != nil {
		return Fig15Result{}, err
	}
	tracker := eval.NewStabilityTracker()
	for _, snap := range run.Snapshots {
		tracker.Observe(snap.At, snap.Infos())
	}
	phases := tracker.Finish()
	if len(phases) == 0 {
		return Fig15Result{}, nil
	}
	samples := make([]float64, len(phases))
	for i, p := range phases {
		samples[i] = p.MaxSamples
	}
	cut := metrics.NewCDF(samples).Quantile(0.99)
	rank := map[*trafficgen.AS]int{}
	for i, a := range run.Scenario.ASes {
		rank[a] = i
	}
	var res Fig15Result
	pni, top5, top20 := 0, 0, 0
	for _, p := range phases {
		d := p.Duration.Hours()
		res.AllDurations = append(res.AllDurations, d)
		if p.MaxSamples >= cut {
			res.ElephantDurations = append(res.ElephantDurations, d)
			res.ElephantCount++
			if itf, ok := run.Scenario.Topo.Interface(p.Ingress); ok && itf.Class == topology.LinkPNI {
				pni++
			}
			if a, ok := run.Scenario.ASOf(p.Prefix.Addr()); ok {
				if rank[a] < 5 {
					top5++
				}
				if rank[a] < 20 {
					top20++
				}
			}
		}
	}
	if res.ElephantCount > 0 {
		res.PNIShare = float64(pni) / float64(res.ElephantCount)
		res.Top5Share = float64(top5) / float64(res.ElephantCount)
		res.Top20Share = float64(top20) / float64(res.ElephantCount)
	}
	mAll := metrics.NewCDF(res.AllDurations).Quantile(0.5)
	mEle := metrics.NewCDF(res.ElephantDurations).Quantile(0.5)
	if mAll > 0 {
		res.MedianRatio = mEle / mAll
	}
	w := opts.out()
	fprintf(w, "# Fig 15: stability of elephant ranges vs ALL baseline\n")
	fprintf(w, "# paper: elephants stay stable for months while 60%% of all ranges flip within an hour\n")
	fprintf(w, "elephants=%d (cut=%.0f samples) median_stable_h=%.1f vs ALL median=%.1f (ratio %.1fx)\n",
		res.ElephantCount, cut, mEle, mAll, res.MedianRatio)
	fprintf(w, "elephant makeup: pni=%.2f top5=%.2f top20=%.2f (paper: 0.33 / 0.11 / 0.26)\n",
		res.PNIShare, res.Top5Share, res.Top20Share)
	return res, nil
}
