package experiments

import (
	"io"
	"strings"
	"testing"
	"time"

	"ipd/internal/core"
	"ipd/internal/timeline"
	"ipd/internal/topology"
)

// quickOpts shares one cached day run across the whole test binary.
func quickOpts() Options { return DefaultOptions().Quick() }

func TestRunDayCaching(t *testing.T) {
	a, err := RunDay(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDay(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("RunDay should return the cached run for identical options")
	}
	if a.EngineStats.Records == 0 || len(a.Snapshots) == 0 {
		t.Fatal("empty day run")
	}
	// Writer must not affect the cache key.
	o := quickOpts()
	o.Writer = &strings.Builder{}
	c, err := RunDay(o)
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Error("Writer should be ignored for caching")
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2StabilityDuration(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Durations) < 100 {
		t.Fatalf("too few prefixes: %d", len(res.Durations))
	}
	// Paper: most prefixes are unstable within the hour. The quick run is
	// only 3 h, so the band is wide, but the majority must be short-lived.
	if res.FracUnder1h < 0.5 {
		t.Errorf("P[<1h] = %v, want the majority short-lived", res.FracUnder1h)
	}
	if len(res.CDF) == 0 {
		t.Error("missing CDF points")
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := Fig3IngressCounts(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// BGP announces many more candidate paths than traffic actually uses.
	if res.FracSingleBGP < 0.05 || res.FracSingleBGP > 0.4 {
		t.Errorf("BGP single-candidate share = %v, want ~0.2", res.FracSingleBGP)
	}
	if res.FracBGPOver5 < 0.4 {
		t.Errorf("BGP >5 candidates = %v, want ~0.6", res.FracBGPOver5)
	}
	if res.FracSingleObserved < 0.6 {
		t.Errorf("observed single-ingress share = %v, want ~0.8", res.FracSingleObserved)
	}
	// The core contrast of §2: far more BGP paths than used ingress points.
	if res.FracSingleObserved <= res.FracSingleBGP {
		t.Error("observed ingress must be more concentrated than BGP candidates")
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := Fig4DominantShare(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopShares) < 50 {
		t.Fatalf("too few multi-ingress prefixes: %d", len(res.TopShares))
	}
	// A dominant ingress exists: the median top share is well above an
	// even split.
	med := 0.0
	if len(res.CDF) > 0 {
		for _, p := range res.CDF {
			if p[1] >= 0.5 {
				med = p[0]
				break
			}
		}
	}
	if med < 0.5 {
		t.Errorf("median dominant share = %v, want > 0.5", med)
	}
}

func TestFig5Walkthrough(t *testing.T) {
	var sb strings.Builder
	opts := quickOpts()
	opts.Writer = &sb
	steps, err := Fig5Walkthrough(opts)
	if err != nil {
		t.Fatal(err)
	}
	splits, classifieds := 0, 0
	for _, s := range steps {
		switch s.Event {
		case "split":
			splits++
		case "classified":
			classifieds++
		}
	}
	// /0 -> /1 -> /2: three splits, four classified quadrants.
	if splits < 3 {
		t.Errorf("splits = %d, want >= 3", splits)
	}
	if classifieds < 4 {
		t.Errorf("classifications = %d, want >= 4", classifieds)
	}
	if !strings.Contains(sb.String(), "final:") {
		t.Error("walkthrough output missing final ranges")
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6Accuracy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper ordering and bands (quick run, loose): high accuracy overall,
	// TOP5 at least as good as ALL-flows coverage allows.
	// The quick run (3 h, 1500 fpm) maps less of the long tail than the
	// full 25 h run (which lands at ~0.94, vs the paper's 0.91).
	if res.Mean[GroupAll] < 0.7 {
		t.Errorf("ALL accuracy = %v, want > 0.7", res.Mean[GroupAll])
	}
	if res.Mean[GroupTop5] < 0.85 {
		t.Errorf("TOP5 accuracy = %v, want > 0.85", res.Mean[GroupTop5])
	}
	if res.MeanMapped[GroupAll] < 0.93 {
		t.Errorf("mapped-only accuracy = %v, want > 0.93", res.MeanMapped[GroupAll])
	}
	// Flow counts are a valid proxy for byte counts (paper: corr 0.82).
	if res.FlowByteCorr < 0.7 {
		t.Errorf("flow/byte correlation = %v, want > 0.7", res.FlowByteCorr)
	}
	if len(res.Bins[GroupAll]) == 0 {
		t.Error("missing per-bin outcomes")
	}
}

func TestFig7Fig8Shape(t *testing.T) {
	res7, err := Fig7MissTaxonomy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res7.Misses) != 5 {
		t.Fatalf("want 5 ASes, got %d", len(res7.Misses))
	}
	for as, m := range res7.Misses {
		total := m[topology.MissInterface] + m[topology.MissRouter] + m[topology.MissPoP]
		if total == 0 {
			t.Errorf("%s has no misses at all", as)
		}
		if res7.DistinctSources[as] == 0 {
			t.Errorf("%s has no distinct miss sources", as)
		}
	}
	res8, err := Fig8MissTimeline(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res8.Timeline) == 0 {
		t.Fatal("empty timeline")
	}
	// AS3's misses follow its traffic (diurnal CDN artifacts; the full
	// 25-hour run measures ~0.7, but the 3-hour quick window only sees
	// the overnight decline, so here we only require the timeline to be
	// populated and not anti-correlated).
	if c := res8.VolumeCorr["AS3"]; c < -0.5 {
		t.Errorf("AS3 volume correlation = %v, strongly negative", c)
	}
	if got := sumInts(res8.Timeline["AS3"]); got == 0 {
		t.Error("AS3 produced no misses")
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := Fig9RangeSizes(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPDShare) == 0 || len(res.BGPShare) == 0 {
		t.Fatal("empty distributions")
	}
	// IPD range sizes differ from BGP prefix sizes: at least one mask with
	// a large share gap.
	maxGap := 0.0
	for bits, s := range res.IPDShare {
		gap := s - res.BGPShare[bits]
		if gap < 0 {
			gap = -gap
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	for bits, s := range res.BGPShare {
		gap := s - res.IPDShare[bits]
		if gap < 0 {
			gap = -gap
		}
		if gap > maxGap {
			maxGap = gap
		}
	}
	if maxGap < 0.05 {
		t.Errorf("IPD and BGP size distributions nearly identical (max gap %v)", maxGap)
	}
}

func TestTables(t *testing.T) {
	rows := Table1(quickOpts())
	if len(rows) != 6 {
		t.Errorf("Table1 rows = %d", len(rows))
	}
	lines, err := Table3Rows(quickOpts(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no Table 3 rows")
	}
	for _, l := range lines {
		if !strings.Contains(l, "(") || !strings.Contains(l, "/") {
			t.Errorf("malformed row %q", l)
		}
	}
}

func TestSpecificityShape(t *testing.T) {
	res, err := Specificity55(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() == 0 {
		t.Fatal("no ranges compared")
	}
	// Paper: IPD ranges are predominantly more specific than BGP prefixes
	// and exact matches are rare.
	if res.MoreSpecificShare < 0.5 {
		t.Errorf("more-specific share = %v, want the majority", res.MoreSpecificShare)
	}
	if res.ExactShare > 0.1 {
		t.Errorf("exact share = %v, want rare", res.ExactShare)
	}
}

// Longitudinal figures run on a small snapshot series (6 monthly points).
const (
	longPoints = 6
	longEvery  = 30 * 24 * time.Hour
)

func TestFig10Shape(t *testing.T) {
	res, err := Fig10Longitudinal(quickOpts(), longPoints, longEvery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matching) != longPoints-1 {
		t.Fatalf("points = %d", len(res.Matching))
	}
	for i := range res.Matching {
		if res.Matching[i] <= 0 || res.Matching[i] > 1 {
			t.Errorf("matching[%d] = %v out of (0,1]", i, res.Matching[i])
		}
		if res.Stable[i] > res.Matching[i]+1e-9 {
			t.Errorf("stable[%d]=%v exceeds matching %v", i, res.Stable[i], res.Matching[i])
		}
	}
	// Matching drops below 1 (address churn) but stays substantial.
	if res.Matching[0] > 0.98 {
		t.Errorf("matching[0] = %v, expected churn below 1", res.Matching[0])
	}
	if res.Matching[len(res.Matching)-1] < 0.3 {
		t.Errorf("late matching = %v, want a plateau not a collapse", res.Matching[len(res.Matching)-1])
	}
}

func TestFig11Fig12Shape(t *testing.T) {
	res11, err := Fig11Daytime(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res11.Hours) == 0 {
		t.Fatal("no hours")
	}
	res12, err := Fig12CDNBehavior(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res12.Hours) != len(res12.PrefixCount) || len(res12.Hours) != len(res12.MappedSpace) {
		t.Fatal("length mismatch")
	}
	for i := range res12.PrefixCount {
		if res12.PrefixCount[i] < 0 || res12.PrefixCount[i] > 1 {
			t.Errorf("normalized prefix count out of range: %v", res12.PrefixCount[i])
		}
	}
}

func TestFig13ReactionToChange(t *testing.T) {
	res, err := Fig13ReactionToChange(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.ChangeDetected {
		t.Errorf("ingress change not detected; final ingress %v", res.IngressAtEnd)
	}
	if len(res.Events) == 0 || len(res.Times) == 0 {
		t.Fatal("missing case-study series")
	}
	// The event log must contain an invalidation (the maintenance moment)
	// followed by a classification.
	sawInvalid, sawReclass := false, false
	for _, ev := range res.Events {
		if ev.Kind == "invalidated" {
			sawInvalid = true
		}
		if sawInvalid && ev.Kind == "classified" {
			sawReclass = true
		}
	}
	if !sawInvalid || !sawReclass {
		t.Error("expected invalidation followed by reclassification")
	}
}

// TestReactionToChangeTimeline runs the Figs 13/14 scenario with a timeline
// collector attached: the maintenance must read as exactly one share-drift
// episode on the abandoned interface, raised and later cleared, and never as
// classification flapping.
func TestReactionToChangeTimeline(t *testing.T) {
	coll := timeline.NewCollector(timeline.Options{})
	cfg := core.DefaultConfig()
	cfg.NCidrFactor4 = 0.001
	cfg.OnEvent = coll.ObserveEvent
	cfg.OnCycle = coll.OnCycle
	res, err := ReactionToChange(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ChangeDetected {
		t.Errorf("ingress change not detected; final ingress %v", res.IngressAtEnd)
	}
	raised, cleared := res.AlertEvents(core.AlertDrift)
	flapRaised, flapCleared := res.AlertEvents(core.AlertFlap)
	if raised != 1 || cleared != 1 || flapRaised+flapCleared != 0 {
		t.Errorf("drift raised %d, cleared %d, flap events %d; want 1, 1, 0", raised, cleared, flapRaised+flapCleared)
	}
	if active := coll.Alerts().Active; len(active) != 0 {
		t.Errorf("%d alerts still active at the end: %+v", len(active), active)
	}
}

func TestFig15Shape(t *testing.T) {
	res, err := Fig15Elephants(quickOpts(), longPoints, longEvery)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElephantCount == 0 {
		t.Fatal("no elephant ranges found")
	}
	if len(res.AllDurations) <= res.ElephantCount {
		t.Fatal("elephants should be a small subset")
	}
}

func TestFig16Shape(t *testing.T) {
	res, err := Fig16Symmetry(quickOpts(), longPoints, longEvery)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{GroupAll, GroupTop5, GroupTier1} {
		if res.Mean[g] <= 0 || res.Mean[g] > 1 {
			t.Errorf("%s symmetry = %v", g, res.Mean[g])
		}
	}
	// Paper ordering: tier-1 most symmetric, above ALL.
	if res.Mean[GroupTier1] <= res.Mean[GroupAll] {
		t.Errorf("tier-1 symmetry (%v) should exceed ALL (%v)",
			res.Mean[GroupTier1], res.Mean[GroupAll])
	}
}

func TestFig17Shape(t *testing.T) {
	res, err := Fig17Violations(quickOpts(), longPoints, longEvery)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total == 0 {
		t.Fatal("no violations detected over the horizon")
	}
	if res.IndirectShare <= 0 || res.IndirectShare > 0.5 {
		t.Errorf("indirect share = %v, want around 0.09", res.IndirectShare)
	}
}

func TestBaselineComparison(t *testing.T) {
	opts := quickOpts()
	res, err := BaselineComparison(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: IPD beats the static map, which beats the BGP
	// path-symmetry shortcut.
	if res.Accuracy["ipd"] <= res.Accuracy["static24"] {
		t.Errorf("IPD (%.3f) should beat static24 (%.3f)", res.Accuracy["ipd"], res.Accuracy["static24"])
	}
	if res.Accuracy["static24"] <= res.Accuracy["bgp"] {
		t.Errorf("static24 (%.3f) should beat BGP (%.3f)", res.Accuracy["static24"], res.Accuracy["bgp"])
	}
	if res.Accuracy["bgp"] > 0.8 {
		t.Errorf("BGP shortcut accuracy %.3f suspiciously high — path asymmetry missing", res.Accuracy["bgp"])
	}
	// A month of churn must cost the frozen map accuracy.
	if res.StaticMonthLater >= res.StaticFirstHour {
		t.Errorf("static map did not decay: %.3f -> %.3f", res.StaticFirstHour, res.StaticMonthLater)
	}
}

func TestParamStudyScreening(t *testing.T) {
	opts := quickOpts()
	opts.FlowsPerMinute = 1000
	res, err := ParamStudy(opts, ScreeningGrid())
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 2 * 3
	if len(res.Results) != want {
		t.Fatalf("configurations = %d, want %d", len(res.Results), want)
	}
	for _, r := range res.Results {
		if r.Accuracy < 0.5 {
			t.Errorf("config q=%v f=%v cm=%d accuracy %v collapsed", r.Q, r.Factor, r.CIDRMax, r.Accuracy)
		}
		if r.MaxRanges == 0 {
			t.Errorf("config %v/%v/%d saw no ranges", r.Q, r.Factor, r.CIDRMax)
		}
	}
	// The appendix headline: accuracy is flat across parameters (low
	// effect size) while resources respond to cidr_max.
	accEta := res.ANOVA["accuracy"]["cidrmax"].EtaSq
	rangesEta := res.ANOVA["ranges"]["cidrmax"].EtaSq
	if rangesEta < accEta {
		t.Errorf("cidr_max should move ranges (eta %v) more than accuracy (eta %v)", rangesEta, accEta)
	}
}

func TestDayRunMapsIPv6(t *testing.T) {
	run, err := RunDay(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if run.EngineStats.RecordsV6 == 0 {
		t.Fatal("no IPv6 records in the day run")
	}
	if len(run.Snapshots) == 0 {
		t.Fatal("no snapshots")
	}
	final := run.Snapshots[len(run.Snapshots)-1]
	v6 := 0
	for _, m := range final.Mapped {
		if !m.Prefix.Addr().Is4() {
			if m.Prefix.Bits() > 48 {
				t.Errorf("v6 range %v beyond cidr_max /48", m.Prefix)
			}
			v6++
		}
	}
	if v6 == 0 {
		t.Error("no IPv6 ranges mapped")
	}
}

func TestSketchFlood(t *testing.T) {
	res, err := SketchFlood(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.GovernedPeak > res.Cap {
		t.Errorf("governed peak %d exceeded cap %d", res.GovernedPeak, res.Cap)
	}
	if res.CapRefusals == 0 {
		t.Errorf("governed server never reached its cap %d (no mint refused)", res.Cap)
	}
	if res.ReferencePeak <= 2*res.Cap {
		t.Errorf("reference peak %d should dwarf the cap %d — flood too weak to exercise the tier",
			res.ReferencePeak, res.Cap)
	}
	if res.LegitParity < 0.85 {
		t.Errorf("legit parity %.3f at flood end, want at least 0.85", res.LegitParity)
	}
	if res.Sketch.Degrades == 0 || res.SketchedPeak == 0 {
		t.Errorf("sketch tier never engaged: degrades=%d sketched peak=%d",
			res.Sketch.Degrades, res.SketchedPeak)
	}
	if res.Compactions > 5 {
		t.Errorf("%d emergency compactions — sketching should have absorbed the flood", res.Compactions)
	}
	if res.Sketch.Hydrates == 0 {
		t.Error("no range hydrated back to exact state after the flood")
	}
	modeEvents, err := res.CheckJournal()
	if err != nil {
		t.Fatal(err)
	}
	if modeEvents == 0 {
		t.Errorf("journal carries no state-mode events despite %d degrades", res.Sketch.Degrades)
	}
}
