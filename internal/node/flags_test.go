package node

import (
	"testing"

	"ipd/internal/core"
)

// goodFlags is a passing Flags value at ipd's defaults; each failure case
// below perturbs exactly one field. TestValidate drives the same rules
// through the command line; these pin them on the value Validate reads.
func goodFlags(q float64) Flags {
	return Flags{LogLevel: "warn", CheckpointEvery: 10, TimelineWindow: 512, q: &q}
}

func TestEngineAcceptsDefaults(t *testing.T) {
	q := core.DefaultConfig().Q
	f := goodFlags(q)
	if err := f.Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	// goodFlags is what an empty command line parses into.
	parsed, _ := parseFlags(t)
	parsed.q = f.q
	if *parsed != f {
		t.Fatalf("parsed defaults %+v, want %+v", *parsed, f)
	}
	// The documented non-default shapes are fine too.
	f.CheckpointEvery, f.MaxRanges, f.MemBudget, f.TimelineWindow, f.MutexProfile = 1, 2, 1<<30, 0, 100
	if err := f.Validate(); err != nil {
		t.Fatalf("valid non-defaults rejected: %v", err)
	}
}

func TestEngineRejections(t *testing.T) {
	cases := []struct {
		name    string
		perturb func(*Flags)
		want    string
	}{
		{"ckpt-every", func(f *Flags) { f.CheckpointEvery = 0 }, "-checkpoint-every must be >= 1 (got 0)"},
		{"max-ranges-neg", func(f *Flags) { f.MaxRanges = -1 }, "-max-ranges must be >= 0 (got -1)"},
		{"max-ranges-one", func(f *Flags) { f.MaxRanges = 1 }, "-max-ranges 1 cannot hold the two /0 roots (use 0 for unlimited or >= 2)"},
		{"mem-budget", func(f *Flags) { f.MemBudget = -1 }, "-mem-budget must be >= 0 (got -1)"},
		{"timeline-window", func(f *Flags) { f.TimelineWindow = -1 }, "-timeline-window must be >= 0 (got -1)"},
		{"mutexprofile", func(f *Flags) { f.MutexProfile = -1 }, "-mutexprofile must be >= 0 (got -1)"},
	}
	for _, tc := range cases {
		f := goodFlags(0.95)
		tc.perturb(&f)
		if err := f.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestFirstErrorWins sets every engine field wrong, then mends them one at
// a time: each error names the next rule in declaration order, so the user
// fixes flags in a stable sequence.
func TestFirstErrorWins(t *testing.T) {
	f := goodFlags(0.95)
	f.CheckpointEvery, f.MaxRanges, f.MemBudget, f.TimelineWindow, f.MutexProfile = 0, 1, -1, -1, -1
	steps := []struct {
		want string
		mend func()
	}{
		{"-checkpoint-every must be >= 1 (got 0)", func() { f.CheckpointEvery = 10 }},
		{"-max-ranges 1 cannot hold the two /0 roots (use 0 for unlimited or >= 2)", func() { f.MaxRanges = 0 }},
		{"-mem-budget must be >= 0 (got -1)", func() { f.MemBudget = 0 }},
		{"-timeline-window must be >= 0 (got -1)", func() { f.TimelineWindow = 512 }},
		{"-mutexprofile must be >= 0 (got -1)", func() { f.MutexProfile = 0 }},
	}
	for _, s := range steps {
		if err := f.Validate(); err == nil || err.Error() != s.want {
			t.Fatalf("error %v, want %q", err, s.want)
		}
		s.mend()
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("all mended, still rejected: %v", err)
	}
}

// TestSketch pins the one rule on -sketch: q must exceed the fixed exact
// margin (0.05), below which no range could ever degrade. With the tier
// off, q is not checked here.
func TestSketch(t *testing.T) {
	cases := []struct {
		sketch bool
		q      float64
		want   string // "" = accepted
	}{
		{true, 0.05, "-q must exceed the sketch tier's exact margin 0.05 with -sketch (got 0.05)"},
		{true, 0.06, ""},
		{false, 0.05, ""},
	}
	for _, tc := range cases {
		f := goodFlags(tc.q)
		f.Sketch = tc.sketch
		err := f.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("-sketch=%v -q %g rejected: %v", tc.sketch, tc.q, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("-sketch=%v -q %g: error %v, want %q", tc.sketch, tc.q, err, tc.want)
		}
	}
}
