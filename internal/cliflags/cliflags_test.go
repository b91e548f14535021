package cliflags

import (
	"strings"
	"testing"
	"time"
)

// goodEngine is a passing Engine argument set; each failure case below
// perturbs exactly one value.
func goodEngine() (uint64, int, int, int64, int, int, int) {
	return 10, 1024, 0, 0, 512, 1, 0
}

func TestEngineAcceptsDefaults(t *testing.T) {
	if err := Engine(goodEngine()); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	// The documented non-default shapes are fine too.
	if err := Engine(1, 1, 2, 1<<30, 0, 5, 100); err != nil {
		t.Fatalf("valid non-defaults rejected: %v", err)
	}
}

func TestEngineRejections(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"ckpt-every", Engine(0, 1024, 0, 0, 512, 1, 0), "-checkpoint-every"},
		{"trace-sample", Engine(10, 0, 0, 0, 512, 1, 0), "-trace-sample"},
		{"max-ranges-neg", Engine(10, 1024, -1, 0, 512, 1, 0), "-max-ranges"},
		{"max-ranges-one", Engine(10, 1024, 1, 0, 512, 1, 0), "/0 roots"},
		{"mem-budget", Engine(10, 1024, 0, -1, 512, 1, 0), "-mem-budget"},
		{"timeline-window", Engine(10, 1024, 0, 0, -1, 1, 0), "-timeline-window"},
		{"timeline-every", Engine(10, 1024, 0, 0, 512, 0, 0), "-timeline-every"},
		{"mutexprofile", Engine(10, 1024, 0, 0, 512, 1, -1), "-mutexprofile"},
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
	err := Engine(0, 0, 1, -1, -1, 0, -1)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-every") {
		t.Fatalf("first error was %v, want -checkpoint-every", err)
	}
}

func TestExporterHealth(t *testing.T) {
	if err := ExporterHealth(3*time.Minute, 5*time.Minute); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := ExporterHealth(0, time.Minute); err == nil || !strings.Contains(err.Error(), "-exporter-stale-after") {
		t.Fatalf("zero stale-after: %v", err)
	}
	if err := ExporterHealth(time.Minute, -time.Second); err == nil || !strings.Contains(err.Error(), "-skew-max") {
		t.Fatalf("negative skew-max: %v", err)
	}
}

func TestWorkload(t *testing.T) {
	if err := Workload(32); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := Workload(1); err == nil || !strings.Contains(err.Error(), "-workload-topk") {
		t.Fatalf("topk 1: %v", err)
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

func TestDeltaShip(t *testing.T) {
	// Disabled shipping skips every check, including nonsense values.
	if err := DeltaShip("", "", 0, 0); err != nil {
		t.Fatalf("disabled shipping rejected: %v", err)
	}
	if err := DeltaShip("core:4810", "edge-1", 1<<16, 2*time.Second); err != nil {
		t.Fatalf("valid shipping rejected: %v", err)
	}
	if err := DeltaShip("core:4810", "", 1<<16, time.Second); err == nil || !strings.Contains(err.Error(), "-edge-id") {
		t.Fatalf("missing edge id: %v", err)
	}
	if err := DeltaShip("core:4810", "edge-1", 0, time.Second); err == nil || !strings.Contains(err.Error(), "-spool-cap") {
		t.Fatalf("zero spool: %v", err)
	}
	if err := DeltaShip("core:4810", "edge-1", 1, 0); err == nil || !strings.Contains(err.Error(), "-heartbeat") {
		t.Fatalf("zero heartbeat: %v", err)
	}
}

func TestSketch(t *testing.T) {
	// Disabled sketching skips every check, including nonsense sizing.
	if err := Sketch(false, 0, 0, -1); err != nil {
		t.Fatalf("disabled sketch rejected: %v", err)
	}
	if err := Sketch(true, 1024, 4, 0.05); err != nil {
		t.Fatalf("valid sketch rejected: %v", err)
	}
	if err := Sketch(true, 1024, 4, 0); err != nil {
		t.Fatalf("zero margin (use the engine default) rejected: %v", err)
	}
	for _, width := range []int{15, 1<<20 + 1} {
		if err := Sketch(true, width, 4, 0.05); err == nil || !strings.Contains(err.Error(), "-sketch-width") {
			t.Fatalf("width %d: %v", width, err)
		}
	}
	for _, depth := range []int{0, 17} {
		if err := Sketch(true, 1024, depth, 0.05); err == nil || !strings.Contains(err.Error(), "-sketch-depth") {
			t.Fatalf("depth %d: %v", depth, err)
		}
	}
	for _, margin := range []float64{-0.1, 1, 1.5} {
		if err := Sketch(true, 1024, 4, margin); err == nil || !strings.Contains(err.Error(), "-sketch-exact-margin") {
			t.Fatalf("margin %g: %v", margin, err)
		}
	}
}

func TestDeltaListen(t *testing.T) {
	if err := DeltaListen("", -1, 0); err != nil {
		t.Fatalf("disabled receiver rejected: %v", err)
	}
	if err := DeltaListen(":4810", 0, 2*time.Second); err != nil {
		t.Fatalf("valid receiver rejected: %v", err)
	}
	if err := DeltaListen(":4810", -time.Second, time.Second); err == nil || !strings.Contains(err.Error(), "-merge-stall") {
		t.Fatalf("negative merge-stall: %v", err)
	}
	if err := DeltaListen(":4810", time.Minute, 0); err == nil || !strings.Contains(err.Error(), "-heartbeat") {
		t.Fatalf("zero heartbeat: %v", err)
	}
}
