package main

import (
	"bytes"
	"os"
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
