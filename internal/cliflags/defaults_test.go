package cliflags_test

import (
	"flag"
	"testing"
	"time"

	"ipd/internal/core"
	"ipd/internal/node"
)

// defaultNode builds a node from the shared flags at their defaults.
func defaultNode(t *testing.T) *node.Node {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := core.DefaultConfig()
	f := node.RegisterFlags(fs, &cfg)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	n, err := node.New("test", f, cfg, node.GovernorInputs{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestExporterHealth pins the exporter-health thresholds the binaries run
// with; no flag sets them.
func TestExporterHealth(t *testing.T) {
	h := defaultNode(t).Health
	if h.StaleAfter() != 3*time.Minute || h.SkewMax() != 5*time.Minute {
		t.Fatalf("stale after %v, skew max %v; want 3m and 5m", h.StaleAfter(), h.SkewMax())
	}
}

// TestWorkload pins the heavy-hitter capacity the binaries' workload
// profiler runs with; no flag sets it.
func TestWorkload(t *testing.T) {
	if k := defaultNode(t).Workload.Snapshot().TopK; k != 32 {
		t.Fatalf("workload top-K %d, want 32", k)
	}
}
