// Command benchgate is the paired A/B runner for the repository's benchmark
// (BENCHMARK.json, ./benchmark). It builds the benchmark at a base ref and at
// the working tree once each, runs them in alternating pairs in one session,
// and prints, per end-to-end metric, both medians, both inter-quartile ranges
// and how many pairs the working tree won. A metric is a "gain" only when the
// working tree wins at least nine pairs in ten and the medians are further
// apart than the base's own inter-quartile range. The exit status is non-zero
// when a median is worse than the base's by more than the metric's bound in
// BENCHMARK.json, a run fails its own checks, or two runs of one side
// disagree on a workload's verdict digest. Run from the repository root.
//
//	go run ./cmd/benchgate -base HEAD~1
//	go run ./cmd/benchgate -base main -workload all -pairs 10 -seed 7
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"
)

// metric is one end_to_end entry of BENCHMARK.json.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // relative worsening that counts as a regression
}

// run is one workload's report line as ./benchmark prints it.
type run struct {
	Workload string `json:"workload"`
	Digest   string `json:"verdict_digest"`
	Error    string `json:"error"`
	Result   struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// parseRuns extracts the report objects (one per workload) from a benchmark
// run's standard output; the bare result objects carry no workload name and
// are skipped.
func parseRuns(out []byte) ([]run, error) {
	var runs []run
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var r run
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("benchgate: bad benchmark output: %v", err)
		}
		if r.Workload != "" {
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// baseFirst alternates which side of a pair runs first, so drift within the
// session (thermal, neighbours) does not favour one side.
func baseFirst(pair int) bool { return pair%2 == 0 }

// quartiles returns the 25th, 50th and 75th percentiles of xs (linear
// interpolation between order statistics).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// comparison is one metric on one workload over all pairs.
type comparison struct {
	baseMed, baseIQR, headMed, headIQR float64
	wins                               int // pairs the head won; a tie counts for neither side
	verdict                            string
}

// compare judges head against base for one metric; base[i] and head[i] are
// the two runs of pair i.
func compare(m metric, base, head []float64) comparison {
	sign := 1.0 // positive delta = head better
	if m.Better == "lower" {
		sign = -1
	}
	var c comparison
	for i := range base {
		if sign*(head[i]-base[i]) > 0 {
			c.wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	hq1, hmed, hq3 := quartiles(head)
	c.baseMed, c.baseIQR, c.headMed, c.headIQR = bmed, bq3-bq1, hmed, hq3-hq1
	gap := sign * (hmed - bmed)
	switch {
	case -gap > m.Bound*math.Abs(bmed):
		c.verdict = "REGRESSED"
	case gap > c.baseIQR && 10*c.wins >= 9*len(base):
		c.verdict = "gain"
	case c.baseIQR > m.Bound*math.Abs(bmed):
		c.verdict = "unresolved" // the base's own spread is wider than the bound
	default:
		c.verdict = "ok"
	}
	return c
}

// side is one of the two builds under comparison.
type side struct {
	name, bin, dir string
	runs           map[string][]run // by workload, in pair order
}

// measure runs the side's benchmark once and files the reports by workload.
func (s *side) measure(args []string) error {
	out, err := output(s.dir, s.bin, args...)
	if err != nil {
		return err
	}
	runs, err := parseRuns(out)
	if err != nil {
		return err
	}
	return s.file(runs)
}

// file books one benchmark run's reports, refusing a run that failed its
// own checks or whose verdict digest differs from this side's earlier runs.
func (s *side) file(runs []run) error {
	if len(runs) == 0 {
		return fmt.Errorf("benchgate: %s run printed no report", s.name)
	}
	for _, r := range runs {
		if !r.Result.Correct {
			return fmt.Errorf("benchgate: %s run of %s failed its checks: %s", s.name, r.Workload, r.Error)
		}
		if prev := s.runs[r.Workload]; len(prev) > 0 && prev[0].Digest != r.Digest {
			return fmt.Errorf("benchgate: %s runs of %s disagree on the verdict digest (%s, %s)", s.name, r.Workload, prev[0].Digest, r.Digest)
		}
		s.runs[r.Workload] = append(s.runs[r.Workload], r)
	}
	return nil
}

func values(runs []run, name string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Result.Metrics[name].Value
	}
	return vs
}

// report prints one table per workload and returns how many metrics
// regressed.
func report(metrics []metric, base, head *side) int {
	workloads := make([]string, 0, len(base.runs))
	for w := range base.runs {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	regressed := 0
	for _, w := range workloads {
		b, h := base.runs[w], head.runs[w]
		same := "same"
		if b[0].Digest != h[0].Digest {
			same = "DIFFERENT"
		}
		fmt.Printf("\n%s: %d pairs, verdict digest %s on both sides\n", w, len(b), same)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tbase median\tbase IQR\thead median\thead IQR\thead/base\twins\t")
		for _, m := range metrics {
			c := compare(m, values(b, m.Name), values(h, m.Name))
			if c.verdict == "REGRESSED" {
				regressed++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.3g\t%.6g\t%.3g\t%.3f\t%d/%d\t%s\n",
				m.Name, m.Unit, c.baseMed, c.baseIQR, c.headMed, c.headIQR, c.headMed/c.baseMed, c.wins, len(b), c.verdict)
		}
		tw.Flush()
	}
	return regressed
}

// output runs a command in dir and returns its standard output; standard
// error goes into the error.
func output(dir, name string, args ...string) ([]byte, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("benchgate: %s %v: %v\n%s", name, args, err, stderr.Bytes())
	}
	return out, nil
}

func gate(baseRef, workload string, pairs int, seed int64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("benchgate: %v (run from the repository root)", err)
	}
	var mf struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		return fmt.Errorf("benchgate: BENCHMARK.json: %v", err)
	}
	tmp, err := os.MkdirTemp("", "benchgate")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	base := &side{name: "base", bin: filepath.Join(tmp, "bench-base"), dir: filepath.Join(tmp, "base"), runs: map[string][]run{}}
	head := &side{name: "head", bin: filepath.Join(tmp, "bench-head"), dir: ".", runs: map[string][]run{}}
	// The base is a plain export of the ref (git archive): unlike a
	// worktree it registers nothing in the repository.
	tarball := filepath.Join(tmp, "base.tar")
	for _, step := range [][]string{
		{".", "git", "archive", "-o", tarball, baseRef},
		{".", "mkdir", base.dir},
		{".", "tar", "-xf", tarball, "-C", base.dir},
		{base.dir, "go", "build", "-o", base.bin, "./benchmark"},
		{head.dir, "go", "build", "-o", head.bin, "./benchmark"},
	} {
		if _, err := output(step[0], step[1], step[2:]...); err != nil {
			return err
		}
	}
	// Run length is the benchmark's own default, the same on both sides.
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10)}
	for i := 0; i < pairs; i++ {
		order := []*side{base, head}
		if !baseFirst(i) {
			order = []*side{head, base}
		}
		for _, s := range order {
			if err := s.measure(args); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "benchgate: pair %d/%d done\n", i+1, pairs)
	}
	if n := report(mf.EndToEnd, base, head); n > 0 {
		return fmt.Errorf("benchgate: %d metric(s) worse than %s by more than their bound", n, baseRef)
	}
	return nil
}

func main() {
	baseRef := flag.String("base", "", "git ref to compare the working tree against (required)")
	workload := flag.String("workload", "steady-v5", "benchmark workload, or all")
	pairs := flag.Int("pairs", 10, "alternating base/head pairs to run")
	seed := flag.Int64("seed", 1, "traffic seed handed to the benchmark")
	flag.Parse()
	if *baseRef == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := gate(*baseRef, *workload, *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
