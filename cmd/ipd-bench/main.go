// Command ipd-bench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured outcomes).
//
// Usage:
//
//	ipd-bench fig6                # one experiment
//	ipd-bench all                 # everything except the full param study
//	ipd-bench paramstudy -full    # the 180-configuration factorial
//	ipd-bench fig16 -points 24    # longer longitudinal series
//
// Flags, before or after the experiment: -seed, -rate, -hours, -quick,
// -points, -every, -full.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"

	"ipd/internal/experiments"
)

type runner func(opts experiments.Options, points int, every time.Duration, full bool) error

// plain adapts an experiment that takes only the options, long one that also
// takes the longitudinal point count and spacing. The report goes to
// opts.Writer; the returned result is for tests.
func plain[R any](fn func(experiments.Options) (R, error)) runner {
	return func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := fn(o)
		return err
	}
}

// long runs with spacing def when -every is not set.
func long[R any](fn func(experiments.Options, int, time.Duration) (R, error), def time.Duration) runner {
	return func(o experiments.Options, p int, e time.Duration, _ bool) error {
		if e == 0 {
			e = def
		}
		_, err := fn(o, p, e)
		return err
	}
}

const month = 30 * 24 * time.Hour

var commands = map[string]struct {
	help string
	run  runner
}{
	"fig2":  {"stability duration per prefix (CDF)", plain(experiments.Fig2StabilityDuration)},
	"fig3":  {"ingress router count per prefix: BGP vs observed", plain(experiments.Fig3IngressCounts)},
	"fig4":  {"traffic share of first-ranked ingress per /24", plain(experiments.Fig4DominantShare)},
	"fig5":  {"algorithm walk-through (split cascade)", plain(experiments.Fig5Walkthrough)},
	"fig6":  {"classification accuracy vs ground truth", plain(experiments.Fig6Accuracy)},
	"fig7":  {"miss taxonomy for TOP5 ASes", plain(experiments.Fig7MissTaxonomy)},
	"fig8":  {"miss timelines (maintenance spikes, diurnal CDNs)", plain(experiments.Fig8MissTimeline)},
	"fig9":  {"IPD range sizes vs BGP prefix sizes", plain(experiments.Fig9RangeSizes)},
	"fig10": {"longitudinal matching/stable ratios", long(experiments.Fig10Longitudinal, month)},
	"fig11": {"network size by daytime (TOP5)", plain(experiments.Fig11Daytime)},
	"fig12": {"network size by daytime (AS4 CDN)", plain(experiments.Fig12CDNBehavior)},
	"fig13": {"reaction to change case study (also fig14)", plain(experiments.Fig13ReactionToChange)},
	"fig14": {"alias of fig13 (detailed range view)", plain(experiments.Fig13ReactionToChange)},
	"fig15": {"elephant-range stability", long(experiments.Fig15Elephants, month)},
	"fig16": {"ingress/egress symmetry over time", long(experiments.Fig16Symmetry, month)},
	// Quarterly spacing by default: the growth inflections sit at months
	// ~20 and ~30 of the archive.
	"fig17": {"tier-1 peering violations over time", long(experiments.Fig17Violations, 3*month)},
	"baselines": {"IPD vs BGP-symmetry vs static /24 baselines", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		if o.Hours > 6 {
			o.Hours = 6 // the comparison replays its own stream; 6 h suffices
		}
		_, err := experiments.BaselineComparison(o)
		return err
	}},
	"specificity": {"§5.5 IPD-vs-BGP prefix correlation", plain(experiments.Specificity55)},
	"table1": {"default parameter table", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		experiments.Table1(o)
		return nil
	}},
	"table3": {"raw output trace sample", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Table3Rows(o, 15)
		return err
	}},
	"paramstudy": {"Appendix A factorial parameter study", func(o experiments.Options, _ int, _ time.Duration, full bool) error {
		grid := experiments.ScreeningGrid()
		if full {
			grid = experiments.FullGrid()
		}
		_, err := experiments.ParamStudy(o, grid)
		return err
	}},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ipd-bench:", err)
		os.Exit(1)
	}
}

// run parses args (flags, then one experiment name or all) and writes the
// report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ipd-bench", flag.ContinueOnError)
	var (
		seed   = fs.Int64("seed", 1, "scenario seed")
		rate   = fs.Int("rate", 5000, "average sampled flows per minute")
		hours  = fs.Int("hours", 25, "day-run length (paper: 25h)")
		quick  = fs.Bool("quick", false, "shrink runs for a fast look")
		points = fs.Int("points", 12, "longitudinal snapshot count (fig10/15/16/17)")
		every  = fs.Duration("every", 0, "longitudinal snapshot spacing (0: 720h, 2160h for fig17)")
		full   = fs.Bool("full", false, "full-size variant (paramstudy)")
	)
	sorted := make([]string, 0, len(commands))
	for n := range commands {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ipd-bench [flags] <experiment>\n\nexperiments:\n")
		for _, n := range sorted {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", n, commands[n].help)
		}
		fmt.Fprintf(fs.Output(), "  %-12s run everything\n\nflags:\n", "all")
		fs.PrintDefaults()
	}
	err := fs.Parse(args)
	name := fs.Arg(0)
	if err == nil && fs.NArg() > 1 {
		err = fs.Parse(fs.Args()[1:]) // flags after the experiment name
	}
	if err == flag.ErrHelp {
		return nil
	} else if err != nil {
		return err
	}
	names := []string{name}
	switch _, ok := commands[name]; {
	case name == "all":
		// fig14 aliases fig13; the heavy one runs last.
		names = slices.DeleteFunc(sorted, func(n string) bool { return n == "fig14" || n == "paramstudy" })
		names = append(names, "paramstudy")
	case !ok:
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", name)
	}

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.FlowsPerMinute = *rate
	opts.Hours = *hours
	if *quick {
		opts = opts.Quick()
	}
	opts.Writer = w
	for _, n := range names {
		if name == "all" {
			fmt.Fprintln(w)
		}
		if err := commands[n].run(opts, *points, *every, *full); err != nil {
			return fmt.Errorf("%s: %v", n, err)
		}
	}
	return nil
}
