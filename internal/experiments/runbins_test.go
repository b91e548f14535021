package experiments

import (
	"regexp"
	"testing"
	"time"

	"ipd/internal/core"
	"ipd/internal/flow"
	"ipd/internal/trafficgen"
)

// TestRunBins pins the figures' record path: every record of a stream
// reaches exactly one bin, boundaries run every bin without a hole, and a
// stream that statistical time thins is an error rather than a thinner
// figure.
func TestRunBins(t *testing.T) {
	scn, err := trafficgen.NewScenario(trafficgen.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	gen := trafficgen.GenConfig{FlowsPerMinute: 1500, NoiseFraction: 0.002, Seed: 1}
	for _, tc := range []struct {
		name  string
		spans [][2]int // generated minutes [from, to) after the scenario start
		err   string   // a pattern of the error; "" for a clean run
	}{
		{"one stream", [][2]int{{0, 30}}, ""},
		{"two streams 20 minutes apart", [][2]int{{0, 10}, {30, 40}}, `dropped 0 stale, [1-9][0-9]* future and 0 inactive records`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var records int
			stream := func(yield func(flow.Record) bool) error {
				for _, sp := range tc.spans {
					from, to := scn.Start.Add(time.Duration(sp[0])*time.Minute), scn.Start.Add(time.Duration(sp[1])*time.Minute)
					stopped := false
					err := scn.Stream(from, to, gen, func(rec flow.Record) bool {
						records++
						stopped = !yield(rec)
						return !stopped
					})
					if err != nil || stopped {
						return err
					}
				}
				return nil
			}
			var bins []time.Time
			binned := 0
			st, err := RunBins(quickOpts().engineConfig(scn.Topo), 5*time.Minute, stream,
				func(b time.Time, recs []flow.Record, _ []core.RangeInfo) {
					bins = append(bins, b)
					for _, rec := range recs {
						if !rec.Ts.Before(b) || rec.Ts.Before(b.Add(-5*time.Minute)) {
							t.Errorf("record at %v handed with the bin ending %v", rec.Ts, b)
						}
					}
					binned += len(recs)
				})
			if tc.err != "" {
				if err == nil || !regexp.MustCompile(tc.err).MatchString(err.Error()) {
					t.Fatalf("RunBins = %v, want an error naming %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if binned != records || st.Records != uint64(records) {
				t.Errorf("%d records streamed, %d binned, %d observed", records, binned, st.Records)
			}
			for i, b := range bins {
				if want := scn.Start.Add(time.Duration(i+1) * 5 * time.Minute); !b.Equal(want) {
					t.Fatalf("bin %d ends %v, want %v", i, b, want)
				}
			}
			if len(bins) != 6 {
				t.Errorf("%d bins, want 6", len(bins))
			}
		})
	}
}
