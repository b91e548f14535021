package node

import (
	"testing"
	"time"
)

// TestExporterHealth pins the exporter-health thresholds ipd runs with; no
// flag sets them.
func TestExporterHealth(t *testing.T) {
	h := newNode(t).Health
	if h.StaleAfter() != 3*time.Minute || h.SkewMax() != 5*time.Minute {
		t.Fatalf("stale after %v, skew max %v; want 3m and 5m", h.StaleAfter(), h.SkewMax())
	}
}

// TestWorkload pins the heavy-hitter capacity ipd's workload profiler runs
// with; no flag sets it.
func TestWorkload(t *testing.T) {
	if k := newNode(t).Workload.Snapshot().TopK; k != 32 {
		t.Fatalf("workload top-K %d, want 32", k)
	}
}
