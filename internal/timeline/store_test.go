package timeline

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// appendRamp appends cycles 1..n with value = cycle to one series.
func appendRamp(st *Store, name string, n int) {
	for c := 1; c <= n; c++ {
		st.Append(name, uint64(c), int64(c)*60, float64(c))
	}
}

// checkCoverage verifies the windowed points are sorted, non-overlapping,
// contiguous up to the newest cycle, and that every aggregate is exactly the
// fold of the ramp values it claims to cover (value = cycle, so Min is the
// first covered cycle, Max the last, Sum the arithmetic series, Count the
// span).
func checkCoverage(t *testing.T, pts []Point, newest uint64) {
	t.Helper()
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for i, p := range pts {
		if p.Count != p.Span {
			t.Fatalf("point %d: count %d != span %d (ramp has every cycle)", i, p.Count, p.Span)
		}
		lo, hi := p.Cycle, p.Cycle+uint64(p.Span)-1
		if p.Min != float64(lo) || p.Max != float64(hi) {
			t.Fatalf("point %d covering [%d,%d]: min/max %v/%v", i, lo, hi, p.Min, p.Max)
		}
		wantSum := float64(lo+hi) / 2 * float64(p.Span)
		if p.Sum != wantSum {
			t.Fatalf("point %d covering [%d,%d]: sum %v, want %v", i, lo, hi, p.Sum, wantSum)
		}
		if i > 0 {
			prev := pts[i-1]
			if prev.Cycle+uint64(prev.Span) != p.Cycle {
				t.Fatalf("gap or overlap between point %d (ends %d) and %d (starts %d)",
					i-1, prev.Cycle+uint64(prev.Span)-1, i, p.Cycle)
			}
		}
	}
	last := pts[len(pts)-1]
	if last.Cycle+uint64(last.Span)-1 != newest {
		t.Fatalf("newest covered cycle %d, want %d", last.Cycle+uint64(last.Span)-1, newest)
	}
}

func TestStoreTier0Exact(t *testing.T) {
	st := NewStore(16)
	appendRamp(st, "ramp", 10)
	pts := st.Get("ramp", 0, 0)
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
	for i, p := range pts {
		want := uint64(i + 1)
		if p.Cycle != want || p.Span != 1 || p.Count != 1 || p.Min != float64(want) || p.Max != float64(want) {
			t.Fatalf("point %d = %+v, want raw cycle %d", i, p, want)
		}
	}
	checkCoverage(t, pts, 10)
}

func TestStoreWraparoundDownsamples(t *testing.T) {
	// window 8, factor 8: tier0 retains the last 8 cycles raw, tier1 the
	// last 8 8-cycle folds, tier2 the last 8 64-cycle folds — total reach
	// 8 + 64 + 512 = 584 cycles.
	// Seam alignment must hold at every fill level, not just multiples of the
	// fold factor — a fine tier's oldest retained point can start inside a
	// coarse fold. Two tier-2 fold periods past the point where every tier
	// has wrapped cover every phase.
	for n := 600; n < 600+2*downsample*downsample; n++ {
		st := NewStore(8)
		appendRamp(st, "seam", n)
		checkCoverage(t, st.Get("seam", 0, 0), uint64(n))
	}

	st := NewStore(8)
	const n = 1000
	appendRamp(st, "ramp", n)

	pts := st.Get("ramp", 0, 0)
	checkCoverage(t, pts, n)

	// The tail must still be per-cycle resolution.
	tail := pts[len(pts)-8:]
	for i, p := range tail {
		if p.Span != 1 {
			t.Fatalf("tail point %d has span %d, want 1", i, p.Span)
		}
	}
	// Older points must be downsampled, not raw: spans 8 and 64 must appear.
	spans := map[uint32]int{}
	for _, p := range pts {
		spans[p.Span]++
	}
	if spans[8] == 0 || spans[64] == 0 {
		t.Fatalf("downsampled tiers missing from window: span histogram %v", spans)
	}
	// Reach: the oldest retained point must go back at least the tier-2 ring.
	if first := pts[0].Cycle; first > n-500 {
		t.Fatalf("history reaches only back to cycle %d of %d", first, n)
	}
}

func TestStoreWindowBounds(t *testing.T) {
	st := NewStore(8)
	appendRamp(st, "ramp", 200)
	pts := st.Get("ramp", 193, 196)
	if len(pts) != 4 {
		t.Fatalf("got %d points in [193,196], want 4: %+v", len(pts), pts)
	}
	for i, p := range pts {
		if p.Cycle != uint64(193+i) {
			t.Fatalf("point %d at cycle %d, want %d", i, p.Cycle, 193+i)
		}
	}
	// A downsampled point overlapping the bound is included (its span covers
	// requested cycles).
	pts = st.Get("ramp", 100, 101)
	if len(pts) != 1 || pts[0].Span == 1 {
		t.Fatalf("want one coarse point covering [100,101], got %+v", pts)
	}
	if pts[0].Cycle > 100 || pts[0].Cycle+uint64(pts[0].Span)-1 < 101 {
		t.Fatalf("coarse point %+v does not cover [100,101]", pts[0])
	}
}

func TestStoreSeriesCapDropsDeterministically(t *testing.T) {
	st := NewStore(8)
	for i := 0; i < maxSeries; i++ {
		st.Append(fmt.Sprintf("s%03d", i), 1, 60, float64(i))
	}
	st.Append("over", 1, 60, 1) // over the cap: dropped, never mis-filed
	st.Append("s000", 2, 120, 4)
	if got := st.Len(); got != maxSeries {
		t.Fatalf("series count %d, want %d", got, maxSeries)
	}
	if got := st.DroppedSeries(); got != 1 {
		t.Fatalf("dropped %d, want 1", got)
	}
	if pts := st.Get("over", 0, 0); pts != nil {
		t.Fatalf("capped series has points: %+v", pts)
	}
	if pts := st.Get("s000", 0, 0); len(pts) != 2 {
		t.Fatalf("series under the cap has %d points, want 2", len(pts))
	}
	names := st.Names()
	if len(names) != maxSeries || names[0] != "s000" || names[maxSeries-1] != fmt.Sprintf("s%03d", maxSeries-1) {
		t.Fatalf("names %v, want s000..s%03d", names, maxSeries-1)
	}
}

func TestStoreWriteCSV(t *testing.T) {
	st := NewStore(16)
	appendRamp(st, "ramp", 5)
	st.Append("other", 1, 60, 2.5)

	var buf bytes.Buffer
	if err := st.WriteCSV(&buf, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() || sc.Text() != "series,cycle,unix,span,min,max,avg,count" {
		t.Fatalf("bad header %q", sc.Text())
	}
	var rows []string
	for sc.Scan() {
		rows = append(rows, sc.Text())
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6:\n%s", len(rows), strings.Join(rows, "\n"))
	}
	if rows[0] != "other,1,60,1,2.5,2.5,2.5,1" {
		t.Fatalf("first row %q", rows[0])
	}

	buf.Reset()
	if err := st.WriteCSV(&buf, []string{"ramp"}, 2, 3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + cycles 2 and 3
		t.Fatalf("filtered CSV: %q", buf.String())
	}
}

func TestStoreAppendDoesNotAllocate(t *testing.T) {
	st := NewStore(64)
	st.Append("steady", 1, 60, 1) // create the series outside the measurement
	allocs := testing.AllocsPerRun(1000, func() {
		st.Append("steady", 2, 120, 2)
	})
	if allocs > 0 {
		t.Fatalf("Append allocates %.1f per call, want 0", allocs)
	}
}
