package introspect

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"net/netip"

	"ipd/internal/core"
	"ipd/internal/exphealth"
	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/timeline"
	"ipd/internal/trace"
	"ipd/internal/workload"
)

// addrIn returns base with its last octet set to host.
func addrIn(base string, host byte) netip.Addr {
	a := netip.MustParseAddr(base).As4()
	a[3] = host
	return netip.AddrFrom4(a)
}

// fullHandler mounts every optional subsystem, so all advertised routes are
// live (no attachment 404s).
func fullHandler(t *testing.T) *Handler {
	t.Helper()
	e, j := quadrantEngine(t)
	tr := trace.New(trace.Options{Capacity: 16, SampleN: 1})
	g, err := governor.New(governor.Config{MaxRanges: 10})
	if err != nil {
		t.Fatal(err)
	}
	return New(e, Attached{
		Journal:   j,
		Traces:    tr.Recorder(),
		Governor:  g,
		Timeline:  timeline.NewCollector(timeline.Options{}),
		Exporters: exphealth.New(exphealth.Options{}),
		Workload:  workload.New(workload.Options{SampleN: 1}),
		Sketch: func() core.SketchStatus {
			return core.SketchStatus{Enabled: true, Width: 1024, Depth: 4}
		},
	})
}

// TestIndexRoutes is the anti-drift check for GET /ipd/: every advertised
// endpoint must dispatch to a real handler (never the index's unknown-path
// 404), unknown paths must land on that 404, and the advertised set must
// match the routes the mux actually mounts.
func TestIndexRoutes(t *testing.T) {
	h := fullHandler(t)

	code, body := get(t, h, "/ipd/")
	if code != http.StatusOK {
		t.Fatalf("GET /ipd/ = %d, body %v", code, body)
	}
	rawEndpoints, _ := body["endpoints"].([]any)
	if len(rawEndpoints) == 0 {
		t.Fatal("index advertises no endpoints")
	}

	want := map[string]bool{
		"/ipd/ranges": true, "/ipd/range": true, "/ipd/explain": true,
		"/ipd/events": true, "/ipd/traces": true, "/ipd/governor": true,
		"/ipd/timeline": true, "/ipd/alerts": true, "/ipd/exporters": true,
		"/ipd/workload": true, "/ipd/sketch": true,
	}
	if len(rawEndpoints) != len(want) {
		t.Errorf("index advertises %d endpoints, want %d", len(rawEndpoints), len(want))
	}
	for _, re := range rawEndpoints {
		ep := re.(map[string]any)
		path, _ := ep["path"].(string)
		if !want[path] {
			t.Errorf("index advertises unexpected path %q", path)
			continue
		}
		delete(want, path)
		if desc, _ := ep["description"].(string); desc == "" {
			t.Errorf("path %q has no description", path)
		}
		// Anti-drift: the advertised path must be mounted — an unmounted
		// path falls through to the index's distinctive unknown-path 404.
		code, body := get(t, h, path)
		if code == http.StatusNotFound {
			if msg, _ := body["error"].(string); strings.Contains(msg, "unknown endpoint") {
				t.Errorf("advertised path %q is not mounted: %v", path, msg)
			}
		}
	}
	for path := range want {
		t.Errorf("mounted path %q missing from index", path)
	}

	// Routes() mirrors the served index.
	if got := h.Routes(); len(got) != len(rawEndpoints) {
		t.Errorf("Routes() returns %d entries, index serves %d", len(got), len(rawEndpoints))
	}

	// Unknown paths land on the JSON 404.
	code, body = get(t, h, "/ipd/nonsense")
	if code != http.StatusNotFound {
		t.Errorf("GET /ipd/nonsense = %d, want 404", code)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "unknown endpoint") {
		t.Errorf("unknown-path error = %q", msg)
	}
}

// TestMethodNotAllowedUniform checks the shared method gate: every endpoint
// (including the index) answers non-GET requests with a JSON 405 and an
// Allow header.
func TestMethodNotAllowedUniform(t *testing.T) {
	h := fullHandler(t)
	paths := []string{"/ipd/"}
	for _, ri := range h.Routes() {
		paths = append(paths, ri.Path)
	}
	for _, path := range paths {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req := httptest.NewRequest(method, path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, path, rec.Code)
				continue
			}
			if allow := rec.Header().Get("Allow"); allow != "GET" {
				t.Errorf("%s %s Allow = %q, want GET", method, path, allow)
			}
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == nil {
				t.Errorf("%s %s: 405 body is not a JSON error: %q", method, path, rec.Body.String())
			}
		}
	}
}

// TestBadParamsUniform is the table-driven error-path sweep: every handler
// that validates a query parameter must answer a malformed one with a JSON
// 400 naming the problem.
func TestBadParamsUniform(t *testing.T) {
	h := fullHandler(t)
	cases := []struct {
		url     string
		errPart string
	}{
		{"/ipd/ranges?classified=maybe", "classified"},
		{"/ipd/ranges?ingress=bogus", "ingress"},
		{"/ipd/ranges?family=5", "family"},
		{"/ipd/ranges?limit=-1", "limit"},
		{"/ipd/range", "prefix"},
		{"/ipd/range?prefix=not-a-prefix", "prefix"},
		{"/ipd/explain", "ip"},
		{"/ipd/explain?ip=999.1.1.1", "ip"},
		{"/ipd/events?since=abc", "since"},
		{"/ipd/events?limit=0", "limit"},
		{"/ipd/traces?limit=abc", "limit"},
		{"/ipd/traces?phase=warp", "phase"},
		{"/ipd/timeline?from=abc", "from"},
		{"/ipd/timeline?to=abc", "to"},
		{"/ipd/timeline?format=xml", "format"},
	}
	for _, c := range cases {
		code, body := get(t, h, c.url)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400 (body %v)", c.url, code, body)
			continue
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, c.errPart) {
			t.Errorf("GET %s error = %q, want mention of %q", c.url, msg, c.errPart)
		}
	}
}

// TestWorkloadEndpoint checks /ipd/workload: 404 when detached, and the
// snapshot shape once a fed profiler is attached — heavy hitters and
// latency, with no shard-simulation or batch-locality sections.
func TestWorkloadEndpoint(t *testing.T) {
	e, j := quadrantEngine(t)

	code, body := get(t, New(e, Attached{Journal: j}), "/ipd/workload")
	if code != http.StatusNotFound {
		t.Fatalf("detached /ipd/workload = %d, body %v", code, body)
	}

	p := workload.New(workload.Options{SampleN: 1})
	ts := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)
	for cycle := 0; cycle < 3; cycle++ {
		for _, q := range quadrants {
			for i := 0; i < 50; i++ {
				p.ObserveBatch([]flow.Record{{Ts: ts, Src: addrIn(q.base, byte(i)), In: q.in}})
			}
		}
		p.TickCycle(uint64(cycle + 1))
		ts = ts.Add(time.Minute)
	}

	code, body = get(t, New(e, Attached{Journal: j, Workload: p}), "/ipd/workload")
	if code != http.StatusOK {
		t.Fatalf("attached /ipd/workload = %d, body %v", code, body)
	}
	if body["records"].(float64) != 600 || body["profiled"].(float64) != 600 {
		t.Errorf("records/profiled = %v/%v, want 600/600", body["records"], body["profiled"])
	}
	top, _ := body["top_aggregates"].([]any)
	if len(top) == 0 {
		t.Fatal("no top aggregates")
	}
	first := top[0].(map[string]any)
	if first["prefix"] == "" || first["ingress"] == "" {
		t.Errorf("top aggregate missing prefix/ingress: %v", first)
	}
	for _, gone := range []string{"shard_plan", "shard_depths", "batch_locality"} {
		if _, ok := body[gone]; ok {
			t.Errorf("snapshot still carries %q", gone)
		}
	}
	if _, ok := body["ingest_latency"].(map[string]any); !ok {
		t.Error("missing ingest_latency")
	}
}
