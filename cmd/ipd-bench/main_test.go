package main

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestReproduction is the reproduction gate: `ipd-bench -points 12 all` at
// the default flags must print experiments_output.txt byte for byte, so a
// change that moves a figure also regenerates the checked-in record of it.
// The run takes about 100 s on two cores; it is skipped under -short and
// under the race detector.
func TestReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction run; skipped under -short")
	}
	if raceEnabled {
		t.Skip("full reproduction run; skipped under -race")
	}
	want, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run([]string{"-points", "12", "all"}, &got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	diffs := 0
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			if diffs++; diffs <= 20 {
				t.Errorf("line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
	}
	t.Fatalf("%d lines differ from experiments_output.txt; regenerate it with `go run ./cmd/ipd-bench -points 12 all > experiments_output.txt` and restate the moved rows in EXPERIMENTS.md", diffs)
}

// TestEverySpacing checks that an explicit -every is honoured by every
// longitudinal figure, and that fig17 alone defaults to quarterly spacing.
func TestEverySpacing(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-quick", "-points", "3", "-every", "720h", "fig17"}, []string{"2018-07-20", "2018-08-19", "2018-09-18"}},
		{[]string{"-quick", "-points", "3", "fig17"}, []string{"2018-07-20", "2018-10-18", "2019-01-16"}},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if at, ok := strings.CutPrefix(line, "t="); ok {
				got = append(got, strings.Fields(at)[0])
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("ipd-bench %s: snapshots at %v, want %v", strings.Join(tc.args, " "), got, tc.want)
		}
	}
}
