package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// reportLine is a benchmark report line cut down to what benchgate reads,
// followed by the bare result line the benchmark prints after it.
func reportLine(workload, digest string, correct bool, recordsPerS, heapMB float64) string {
	result := fmt.Sprintf(`{"correct":%t,"attempted":100,"failed":0,"metrics":{"records_per_s":{"value":%g,"unit":"records/s"},"heap_live_mb":{"value":%g,"unit":"MiB"}}}`,
		correct, recordsPerS, heapMB)
	return fmt.Sprintf(`{"workload":%q,"seed":1,"verdict_digest":%q,"block_ms":[[1,2]],"result":%s}`+"\n%s\n", workload, digest, result, result)
}

func TestParseRuns(t *testing.T) {
	out := reportLine("steady-v5", "abc", true, 1.1e6, 13.3) + reportLine("cold-start-v5", "def", false, 9e5, 40)
	runs, err := parseRuns([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d report lines, want 2 (result lines must be skipped)", len(runs))
	}
	r := runs[0]
	if r.Workload != "steady-v5" || r.Digest != "abc" || !r.Result.Correct || r.Result.Metrics["records_per_s"].Value != 1.1e6 {
		t.Errorf("first run parsed as %+v", r)
	}
	if runs[1].Result.Correct || runs[1].Result.Metrics["heap_live_mb"].Value != 40 {
		t.Errorf("second run parsed as %+v", runs[1])
	}
	if _, err := parseRuns([]byte("not json\n")); err == nil {
		t.Error("garbage output accepted")
	}
}

func TestPairsAlternate(t *testing.T) {
	first := 0
	for i := 0; i < 10; i++ {
		if baseFirst(i) == baseFirst(i+1) {
			t.Fatalf("pairs %d and %d start with the same side", i, i+1)
		}
		if baseFirst(i) {
			first++
		}
	}
	if first != 5 {
		t.Errorf("base went first in %d of 10 pairs, want 5", first)
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles of 1..5 = %v %v %v, want 2 3 4", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles of 1..4 = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v %v %v", q1, med, q3)
	}
}

func TestCompare(t *testing.T) {
	higher := metric{Name: "records_per_s", Better: "higher", Bound: 0.25}
	lower := metric{Name: "heap_live_mb", Better: "lower", Bound: 0.03}
	base := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name    string
		m       metric
		head    []float64
		verdict string
		wins    int
	}{
		{"clear gain", higher, scale(1.4), "gain", 10},
		{"within bound", higher, scale(0.9), "ok", 0},
		{"beyond bound", higher, scale(0.7), "REGRESSED", 0},
		{"lower is better: smaller wins", lower, scale(0.5), "gain", 10},
		{"lower is better: growth past 3% regresses", lower, scale(1.05), "REGRESSED", 0},
		// Medians far apart but only 8 of 10 pairs won: no gain.
		{"eight wins are not nine", higher, []float64{140, 143, 137, 141, 139, 140, 144, 136, 90, 90}, "ok", 8},
		// A tie counts for neither side.
		{"ties", higher, base, "ok", 0},
	}
	for _, tc := range cases {
		c := compare(tc.m, base, tc.head)
		if c.verdict != tc.verdict || c.wins != tc.wins {
			t.Errorf("%s: verdict %q wins %d, want %q %d (%+v)", tc.name, c.verdict, c.wins, tc.verdict, tc.wins, c)
		}
	}
	c := compare(higher, base, scale(1.4))
	if c.baseMed != 100 || math.Abs(c.headMed-140) > 1e-9 || c.baseIQR != 1.75 {
		t.Errorf("medians/IQR = %+v", c)
	}
	// The base's own spread exceeds a 3% bound: neither ok nor regressed.
	noisy := []float64{100, 120, 80, 110, 90, 100, 125, 75, 100, 105}
	if c := compare(lower, noisy, noisy); c.verdict != "unresolved" {
		t.Errorf("noisy base judged %q, want unresolved", c.verdict)
	}
}

func TestFileChecksRuns(t *testing.T) {
	s := &side{name: "head", runs: map[string][]run{}}
	file := func(out string) error {
		runs, err := parseRuns([]byte(out))
		if err != nil {
			return err
		}
		return s.file(runs)
	}
	if err := file(reportLine("steady-v5", "abc", true, 1e6, 13)); err != nil {
		t.Fatal(err)
	}
	if err := file(reportLine("steady-v5", "abc", true, 1.1e6, 13)); err != nil {
		t.Fatal(err)
	}
	if got := values(s.runs["steady-v5"], "records_per_s"); len(got) != 2 || got[1] != 1.1e6 {
		t.Errorf("filed values = %v", got)
	}
	if err := file(reportLine("steady-v5", "xyz", true, 1e6, 13)); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("digest change within one side: err = %v", err)
	}
	if err := file(reportLine("steady-v5", "abc", false, 1e6, 13)); err == nil || !strings.Contains(err.Error(), "checks") {
		t.Errorf("incorrect run: err = %v", err)
	}
	if err := file(""); err == nil {
		t.Error("empty output accepted")
	}
}
