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
// Global flags (before the subcommand): -seed, -rate, -hours, -quick.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ipd/internal/experiments"
)

type runner func(opts experiments.Options, points int, every time.Duration, full bool) error

var commands = map[string]struct {
	help string
	run  runner
}{
	"fig2": {"stability duration per prefix (CDF)", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig2StabilityDuration(o)
		return err
	}},
	"fig3": {"ingress router count per prefix: BGP vs observed", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig3IngressCounts(o)
		return err
	}},
	"fig4": {"traffic share of first-ranked ingress per /24", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig4DominantShare(o)
		return err
	}},
	"fig5": {"algorithm walk-through (split cascade)", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig5Walkthrough(o)
		return err
	}},
	"fig6": {"classification accuracy vs ground truth", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig6Accuracy(o)
		return err
	}},
	"fig7": {"miss taxonomy for TOP5 ASes", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig7MissTaxonomy(o)
		return err
	}},
	"fig8": {"miss timelines (maintenance spikes, diurnal CDNs)", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig8MissTimeline(o)
		return err
	}},
	"fig9": {"IPD range sizes vs BGP prefix sizes", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig9RangeSizes(o)
		return err
	}},
	"fig10": {"longitudinal matching/stable ratios", func(o experiments.Options, p int, e time.Duration, _ bool) error {
		_, err := experiments.Fig10Longitudinal(o, p, e)
		return err
	}},
	"fig11": {"network size by daytime (TOP5)", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig11Daytime(o)
		return err
	}},
	"fig12": {"network size by daytime (AS4 CDN)", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig12CDNBehavior(o)
		return err
	}},
	"fig13": {"reaction to change case study (also fig14)", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig13ReactionToChange(o)
		return err
	}},
	"fig14": {"alias of fig13 (detailed range view)", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Fig13ReactionToChange(o)
		return err
	}},
	"fig15": {"elephant-range stability", func(o experiments.Options, p int, e time.Duration, _ bool) error {
		_, err := experiments.Fig15Elephants(o, p, e)
		return err
	}},
	"fig16": {"ingress/egress symmetry over time", func(o experiments.Options, p int, e time.Duration, _ bool) error {
		_, err := experiments.Fig16Symmetry(o, p, e)
		return err
	}},
	"fig17": {"tier-1 peering violations over time", func(o experiments.Options, p int, e time.Duration, _ bool) error {
		// Quarterly spacing by default: the growth inflections sit at
		// months ~20 and ~30 of the archive.
		if e == 30*24*time.Hour {
			e = 90 * 24 * time.Hour
		}
		_, err := experiments.Fig17Violations(o, p, e)
		return err
	}},
	"baselines": {"IPD vs BGP-symmetry vs static /24 baselines", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		if o.Hours > 6 {
			o.Hours = 6 // the comparison replays its own stream; 6 h suffices
		}
		_, err := experiments.BaselineComparison(o)
		return err
	}},
	"specificity": {"§5.5 IPD-vs-BGP prefix correlation", func(o experiments.Options, _ int, _ time.Duration, _ bool) error {
		_, err := experiments.Specificity55(o)
		return err
	}},
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
	var (
		seed   = flag.Int64("seed", 1, "scenario seed")
		rate   = flag.Int("rate", 5000, "average sampled flows per minute")
		hours  = flag.Int("hours", 25, "day-run length (paper: 25h)")
		quick  = flag.Bool("quick", false, "shrink runs for a fast look")
		points = flag.Int("points", 12, "longitudinal snapshot count (fig10/15/16/17)")
		every  = flag.Duration("every", 30*24*time.Hour, "longitudinal snapshot spacing")
		full   = flag.Bool("full", false, "full-size variant (paramstudy)")
	)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	name := flag.Arg(0)

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.FlowsPerMinute = *rate
	opts.Hours = *hours
	opts.Writer = os.Stdout
	if *quick {
		opts = opts.Quick()
		opts.Writer = os.Stdout
	}

	if name == "all" {
		names := make([]string, 0, len(commands))
		for n := range commands {
			if n == "fig14" || n == "paramstudy" {
				continue // fig14 aliases fig13; the heavy one runs last
			}
			names = append(names, n)
		}
		sort.Strings(names)
		names = append(names, "paramstudy")
		for _, n := range names {
			fmt.Println()
			if err := commands[n].run(opts, *points, *every, *full); err != nil {
				fmt.Fprintf(os.Stderr, "ipd-bench %s: %v\n", n, err)
				os.Exit(1)
			}
		}
		return
	}
	cmd, ok := commands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "ipd-bench: unknown experiment %q\n\n", name)
		usage()
		os.Exit(2)
	}
	if err := cmd.run(opts, *points, *every, *full); err != nil {
		fmt.Fprintf(os.Stderr, "ipd-bench %s: %v\n", name, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: ipd-bench [flags] <experiment>\n\nexperiments:\n")
	names := make([]string, 0, len(commands))
	for n := range commands {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", n, commands[n].help)
	}
	fmt.Fprintf(os.Stderr, "  %-12s run everything\n\nflags:\n", "all")
	flag.PrintDefaults()
}
