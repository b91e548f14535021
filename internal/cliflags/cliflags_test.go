package cliflags

import (
	"strings"
	"testing"
)

// goodEngine is a passing Engine argument set; each failure case below
// perturbs exactly one value.
func goodEngine() (uint64, int, int64, int, int) {
	return 10, 0, 0, 512, 0
}

func TestEngineAcceptsDefaults(t *testing.T) {
	if err := Engine(goodEngine()); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	// The documented non-default shapes are fine too.
	if err := Engine(1, 2, 1<<30, 0, 100); err != nil {
		t.Fatalf("valid non-defaults rejected: %v", err)
	}
}

func TestEngineRejections(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"ckpt-every", Engine(0, 0, 0, 512, 0), "-checkpoint-every"},
		{"max-ranges-neg", Engine(10, -1, 0, 512, 0), "-max-ranges"},
		{"max-ranges-one", Engine(10, 1, 0, 512, 0), "/0 roots"},
		{"mem-budget", Engine(10, 0, -1, 512, 0), "-mem-budget"},
		{"timeline-window", Engine(10, 0, 0, -1, 0), "-timeline-window"},
		{"mutexprofile", Engine(10, 0, 0, 512, -1), "-mutexprofile"},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: bad value accepted", tc.name)
			continue
		}
		if !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, tc.err, tc.want)
		}
	}
}

func TestFirstErrorWins(t *testing.T) {
	// Everything is wrong: the first check in declaration order must win, so
	// the user fixes flags in a stable sequence.
	err := Engine(0, 1, -1, -1, -1)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-every") {
		t.Fatalf("first error was %v, want -checkpoint-every", err)
	}
}

func TestIngest(t *testing.T) {
	if err := Ingest(1<<14, 1, 8); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := Ingest(0, 1, 8); err == nil || !strings.Contains(err.Error(), "-queue") {
		t.Fatalf("queue 0: %v", err)
	}
	if err := Ingest(1, 0, 8); err == nil || !strings.Contains(err.Error(), "-sample") {
		t.Fatalf("sample 0: %v", err)
	}
	if err := Ingest(1, 1, 0); err == nil || !strings.Contains(err.Error(), "-sample-boost") {
		t.Fatalf("boost 0: %v", err)
	}
}

// TestSketch pins the one rule left on -sketch: q must exceed the fixed
// exact margin (0.05), below which no range could ever degrade. With the
// tier off, q is not checked here.
func TestSketch(t *testing.T) {
	if err := Sketch(true, 0.05); err == nil || !strings.Contains(err.Error(), "-q") {
		t.Fatalf("-q 0.05 -sketch: %v", err)
	}
	if err := Sketch(true, 0.06); err != nil {
		t.Fatalf("-q 0.06 -sketch rejected: %v", err)
	}
	if err := Sketch(false, 0.05); err != nil {
		t.Fatalf("sketch off checked q: %v", err)
	}
}
