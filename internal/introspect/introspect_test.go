package introspect

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"ipd/internal/core"
	"ipd/internal/exphealth"
	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/journal"
	"ipd/internal/stattime"
	"ipd/internal/trace"
)

var (
	inA = flow.Ingress{Router: 1, Iface: 1}
	inB = flow.Ingress{Router: 2, Iface: 1}
	inC = flow.Ingress{Router: 3, Iface: 1}
	inD = flow.Ingress{Router: 4, Iface: 1}
)

var quadrants = []struct {
	base string
	in   flow.Ingress
}{
	{"10.0.0.0", inA},  // 0.0.0.0/2
	{"70.0.0.0", inB},  // 64.0.0.0/2
	{"140.0.0.0", inC}, // 128.0.0.0/2
	{"210.0.0.0", inD}, // 192.0.0.0/2
}

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.NCidrFactor4 = 0.0005 // n(/0)=33, n(/2)=16 for this toy stream
	cfg.NCidrFactor6 = 1e-8
	return cfg
}

// quadrantEngine drives the Fig. 5 workload: one ingress per /2 quadrant,
// five cycles, ending with four classified /2 ranges.
func quadrantEngine(t *testing.T) (*core.Engine, *journal.Journal) {
	t.Helper()
	j := journal.New(journal.Options{})
	cfg := testConfig()
	cfg.OnEvent = j.Record
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)
	for cycle := 0; cycle < 5; cycle++ {
		for _, q := range quadrants {
			a := netip.MustParseAddr(q.base).As4()
			for i := 0; i < 20; i++ {
				a[3] = byte(i)
				e.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: q.in, Bytes: 1200, Packets: 1})
			}
		}
		ts = ts.Add(time.Minute)
		e.AdvanceTo(ts)
	}
	return e, j
}

func get(t *testing.T, h http.Handler, url string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: non-JSON response %q: %v", url, rec.Body.String(), err)
	}
	return rec.Code, body
}

// TestExplainEndpoint is the acceptance check for /ipd/explain: the LPM
// walk, the matched range, the vote shares, and the reason chain.
func TestExplainEndpoint(t *testing.T) {
	e, j := quadrantEngine(t)
	h := New(e, Attached{Journal: j})

	code, body := get(t, h, "/ipd/explain?ip=70.0.0.1")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	if body["ip"] != "70.0.0.1" {
		t.Errorf("ip = %v", body["ip"])
	}
	path, _ := body["path"].([]any)
	if len(path) == 0 || path[0] != "0.0.0.0/0" || path[len(path)-1] != "64.0.0.0/2" {
		t.Errorf("path = %v, want walk from 0.0.0.0/0 to 64.0.0.0/2", path)
	}
	rng, _ := body["range"].(map[string]any)
	if rng["prefix"] != "64.0.0.0/2" || rng["classified"] != true || rng["ingress"] != "R2.1" {
		t.Errorf("range = %v", rng)
	}
	shares, _ := body["shares"].([]any)
	if len(shares) != 1 {
		t.Fatalf("shares = %v, want exactly the winning ingress", shares)
	}
	top, _ := shares[0].(map[string]any)
	if top["ingress"] != "R2.1" || top["share"].(float64) != 1.0 {
		t.Errorf("top share = %v", top)
	}
	vt, _ := body["verdict_text"].(string)
	if !strings.Contains(vt, "prevalent-ingress") || !strings.Contains(vt, "64.0.0.0/2") {
		t.Errorf("verdict_text = %q", vt)
	}
	// The reason chain covers the whole lineage: the root's creation, the
	// splits that carved out 64.0.0.0/2, and its classification.
	hist, _ := body["history"].([]any)
	kinds := map[string]int{}
	var lastSeq float64
	for _, it := range hist {
		ev := it.(map[string]any)
		kinds[ev["kind"].(string)]++
		if s := ev["seq"].(float64); s <= lastSeq {
			t.Errorf("history not seq-ordered at %v", s)
		} else {
			lastSeq = s
		}
		if _, ok := ev["reason_text"].(string); !ok {
			t.Errorf("event missing reason_text: %v", ev)
		}
	}
	if kinds["created"] == 0 || kinds["split"] < 2 || kinds["classified"] == 0 {
		t.Errorf("history kinds = %v, want created + >=2 splits + classified", kinds)
	}
}

func TestExplainBadRequests(t *testing.T) {
	e, j := quadrantEngine(t)
	h := New(e, Attached{Journal: j})
	if code, _ := get(t, h, "/ipd/explain"); code != http.StatusBadRequest {
		t.Errorf("missing ip: status = %d", code)
	}
	if code, body := get(t, h, "/ipd/explain?ip=banana"); code != http.StatusBadRequest {
		t.Errorf("bad ip: status = %d, body %v", code, body)
	}
}

func TestRangesFilters(t *testing.T) {
	e, j := quadrantEngine(t)
	h := New(e, Attached{Journal: j})

	code, body := get(t, h, "/ipd/ranges")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	// Four classified /2s plus the v6 root.
	if body["total"].(float64) != 5 {
		t.Errorf("total = %v, want 5", body["total"])
	}

	_, body = get(t, h, "/ipd/ranges?classified=true&family=4")
	if body["total"].(float64) != 4 {
		t.Errorf("classified v4 total = %v, want 4", body["total"])
	}

	_, body = get(t, h, "/ipd/ranges?ingress=R2.1")
	if body["total"].(float64) != 1 {
		t.Fatalf("ingress filter total = %v, want 1", body["total"])
	}
	ranges := body["ranges"].([]any)
	if ranges[0].(map[string]any)["prefix"] != "64.0.0.0/2" {
		t.Errorf("ingress filter matched %v", ranges[0])
	}

	_, body = get(t, h, "/ipd/ranges?family=4&limit=2")
	if body["total"].(float64) != 4 || body["count"].(float64) != 2 {
		t.Errorf("limit: total %v count %v, want 4 and 2", body["total"], body["count"])
	}

	for _, bad := range []string{
		"/ipd/ranges?classified=maybe",
		"/ipd/ranges?ingress=banana",
		"/ipd/ranges?family=5",
		"/ipd/ranges?limit=-1",
	} {
		if code, _ := get(t, h, bad); code != http.StatusBadRequest {
			t.Errorf("GET %s: status = %d, want 400", bad, code)
		}
	}
}

func TestRangeEndpoint(t *testing.T) {
	e, j := quadrantEngine(t)
	h := New(e, Attached{Journal: j})

	code, body := get(t, h, "/ipd/range?prefix=64.0.0.0/2")
	if code != http.StatusOK || body["active"] != true {
		t.Fatalf("active range: status %d body %v", code, body)
	}
	if body["range"].(map[string]any)["ingress"] != "R2.1" {
		t.Errorf("range = %v", body["range"])
	}
	if len(body["history"].([]any)) == 0 {
		t.Error("history empty for an active range")
	}

	// The root was split away: not active, but its history survives.
	code, body = get(t, h, "/ipd/range?prefix=0.0.0.0/0")
	if code != http.StatusOK || body["active"] != false {
		t.Fatalf("split-away range: status %d active %v", code, body["active"])
	}
	if len(body["history"].([]any)) == 0 {
		t.Error("history empty for a split-away range")
	}

	if code, _ := get(t, h, "/ipd/range"); code != http.StatusBadRequest {
		t.Errorf("missing prefix: status = %d", code)
	}
	if code, _ := get(t, h, "/ipd/range?prefix=banana"); code != http.StatusBadRequest {
		t.Errorf("bad prefix: status = %d", code)
	}

	// Without a journal, an inactive prefix has nothing to report.
	bare := New(e, Attached{})
	if code, _ := get(t, bare, "/ipd/range?prefix=55.0.0.0/8"); code != http.StatusNotFound {
		t.Errorf("no journal + inactive: status = %d, want 404", code)
	}
}

func TestEventsEndpoint(t *testing.T) {
	e, j := quadrantEngine(t)
	h := New(e, Attached{Journal: j})

	code, body := get(t, h, "/ipd/events")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	n := body["count"].(float64)
	if n == 0 || n != float64(len(body["events"].([]any))) {
		t.Fatalf("count = %v, events = %d", n, len(body["events"].([]any)))
	}
	latest := body["latest_seq"].(float64)

	_, body = get(t, h, fmt.Sprintf("/ipd/events?since=%.0f", latest-2))
	if body["count"].(float64) != 2 {
		t.Errorf("since tail count = %v, want 2", body["count"])
	}
	_, body = get(t, h, "/ipd/events?limit=3")
	if body["count"].(float64) != 3 {
		t.Errorf("limited count = %v, want 3", body["count"])
	}
	if code, _ := get(t, h, "/ipd/events?since=banana"); code != http.StatusBadRequest {
		t.Errorf("bad since: status = %d", code)
	}
	if code, _ := get(t, h, "/ipd/events?limit=0"); code != http.StatusBadRequest {
		t.Errorf("bad limit: status = %d", code)
	}

	bare := New(e, Attached{})
	if code, _ := get(t, bare, "/ipd/events"); code != http.StatusNotFound {
		t.Errorf("no journal: status = %d, want 404", code)
	}
}

// TestTracesEndpoint checks /ipd/traces: span tail shape, limit and phase
// filters, accounting fields, and the 404 without a recorder attached.
func TestTracesEndpoint(t *testing.T) {
	j := journal.New(journal.Options{})
	tr := trace.New(trace.Options{Capacity: 512, SampleN: 1})
	cfg := testConfig()
	cfg.OnEvent = j.Record
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetTracer(tr)
	ts := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)
	for cycle := 0; cycle < 3; cycle++ {
		for _, q := range quadrants {
			a := netip.MustParseAddr(q.base).As4()
			for i := 0; i < 20; i++ {
				a[3] = byte(i)
				e.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: q.in, Bytes: 1200, Packets: 1})
			}
		}
		ts = ts.Add(time.Minute)
		e.AdvanceTo(ts)
	}

	if code, _ := get(t, New(e, Attached{Journal: j}), "/ipd/traces"); code != http.StatusNotFound {
		t.Errorf("no recorder: status = %d, want 404", code)
	}
	h := New(e, Attached{Journal: j, Traces: tr.Recorder()})

	code, body := get(t, h, "/ipd/traces")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	spans, _ := body["spans"].([]any)
	if len(spans) == 0 || body["count"].(float64) != float64(len(spans)) {
		t.Fatalf("count = %v, spans = %d", body["count"], len(spans))
	}
	if body["recorded"].(float64) < body["count"].(float64) {
		t.Errorf("recorded %v < served count %v", body["recorded"], body["count"])
	}
	if body["capacity"].(float64) != 512 {
		t.Errorf("capacity = %v, want 512", body["capacity"])
	}
	first := spans[0].(map[string]any)
	for _, key := range []string{"seq", "phase", "cycle", "ranges", "start", "wall_ns", "cpu_ns"} {
		if _, ok := first[key]; !ok {
			t.Errorf("span is missing %q: %v", key, first)
		}
	}

	// Two cycles advanced: the phase filter must return exactly the cycle
	// umbrella spans, one per cycle (AdvanceTo runs a cycle per boundary;
	// three advances from a started engine run at least two).
	_, body = get(t, h, "/ipd/traces?phase=cycle")
	cycles, _ := body["spans"].([]any)
	if len(cycles) == 0 {
		t.Fatal("phase=cycle returned no spans")
	}
	for _, s := range cycles {
		if ph := s.(map[string]any)["phase"]; ph != "cycle" {
			t.Errorf("phase filter leaked a %v span", ph)
		}
	}

	_, body = get(t, h, "/ipd/traces?limit=2")
	if body["count"].(float64) != 2 {
		t.Errorf("limited count = %v, want 2", body["count"])
	}
	// limit applies after the phase filter, and the tail keeps the newest.
	_, body = get(t, h, "/ipd/traces?phase=cycle&limit=1")
	one, _ := body["spans"].([]any)
	if len(one) != 1 || one[0].(map[string]any)["phase"] != "cycle" {
		t.Errorf("phase+limit tail = %v, want one cycle span", one)
	}

	if code, _ := get(t, h, "/ipd/traces?phase=banana"); code != http.StatusBadRequest {
		t.Errorf("bad phase: status = %d, want 400", code)
	}
	if code, _ := get(t, h, "/ipd/traces?limit=0"); code != http.StatusBadRequest {
		t.Errorf("bad limit: status = %d, want 400", code)
	}
}

// TestConcurrentTailDuringIngest exercises the advertised concurrency
// contract under the race detector: HTTP clients tail /ipd/events and poll
// /ipd/explain while a core.Server ingests records and mutates ranges.
func TestConcurrentTailDuringIngest(t *testing.T) {
	j := journal.New(journal.Options{Capacity: 4096})
	cfg := testConfig()
	cfg.OnEvent = j.Record
	srv, err := core.NewServer(cfg, stattime.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(srv, Attached{Journal: j}))
	defer ts.Close()

	queue := core.NewIngestQueue(1 << 12)
	runErr := make(chan error, 1)
	go func() { runErr <- srv.RunQueue(context.Background(), queue) }()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("%s/ipd/events?since=%d", ts.URL, cursor))
				if err != nil {
					t.Error(err)
					return
				}
				var body struct {
					Events []core.Event `json:"events"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for _, ev := range body.Events {
					if ev.Seq <= cursor {
						t.Errorf("tail went backwards: seq %d after cursor %d", ev.Seq, cursor)
						return
					}
					cursor = ev.Seq
				}
				// Interleave a read-side endpoint that walks the live trie.
				resp, err = http.Get(ts.URL + "/ipd/explain?ip=70.0.0.1")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}

	start := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)
	for cycle := 0; cycle < 8; cycle++ {
		for _, q := range quadrants {
			a := netip.MustParseAddr(q.base).As4()
			for i := 0; i < 20; i++ {
				a[3] = byte(i)
				queue.Offer(flow.Record{Ts: start.Add(time.Duration(cycle) * time.Minute),
					Src: netip.AddrFrom4(a), In: q.in, Bytes: 1200, Packets: 1})
			}
		}
	}
	queue.Close()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if queue.Shed() != 0 {
		t.Fatalf("queue shed %d records", queue.Shed())
	}
	close(stop)
	wg.Wait()

	if j.Dropped() != 0 {
		t.Fatalf("journal overflowed; the gap-free tail assertion needs capacity headroom")
	}
	// The run is over: one final poll must see the complete log, and
	// replaying it must reproduce the server's final snapshot.
	rp, err := core.NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range j.All() {
		if err := rp.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.DiffPartitions(srv.Snapshot(), rp.Snapshot()); err != nil {
		t.Errorf("journal replay diverged from the live server snapshot: %v", err)
	}
}

// TestGovernorEndpoint pins /ipd/governor: 404 without a governor, and with
// one attached the JSON carries the state, per-budget utilization, and
// hysteresis progress.
func TestGovernorEndpoint(t *testing.T) {
	e, j := quadrantEngine(t)
	if code, _ := get(t, New(e, Attached{Journal: j}), "/ipd/governor"); code != http.StatusNotFound {
		t.Errorf("governor without attachment = %d, want 404", code)
	}
	g, err := governor.New(governor.Config{MaxRanges: 10})
	if err != nil {
		t.Fatal(err)
	}
	g.Evaluate(governor.Usage{Ranges: 10}) // util 1.0: emergency
	code, body := get(t, New(e, Attached{Journal: j, Governor: g}), "/ipd/governor")
	if code != http.StatusOK {
		t.Fatalf("governor = %d, want 200", code)
	}
	if got := body["state"]; got != "emergency" {
		t.Errorf("state = %v, want emergency", got)
	}
	if got := body["utilization"]; got != 1.0 {
		t.Errorf("utilization = %v, want 1", got)
	}
	if got := body["hold_cycles"]; got != float64(governor.HoldCycles) {
		t.Errorf("hold_cycles = %v, want %d", got, governor.HoldCycles)
	}
	budgets, ok := body["budgets"].([]any)
	if !ok || len(budgets) == 0 {
		t.Fatalf("budgets missing from %v", body)
	}
	b0 := budgets[0].(map[string]any)
	if b0["name"] != "ranges" || b0["max"] != 10.0 {
		t.Errorf("budget[0] = %v, want the ranges budget with max 10", b0)
	}
}

// TestExportersEndpoint covers /ipd/exporters: 404 without a tracker, then
// the per-feed health snapshot once one is attached and fed.
func TestExportersEndpoint(t *testing.T) {
	e, j := quadrantEngine(t)
	if code, _ := get(t, New(e, Attached{Journal: j}), "/ipd/exporters"); code != http.StatusNotFound {
		t.Errorf("exporters without attachment = %d, want 404", code)
	}

	now := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)
	tr := exphealth.New(exphealth.Options{Now: func() time.Time { return now }})
	tr.ObserveNetFlow(2, 0, 10, now, 100)
	tr.ObserveNetFlow(2, 40, 10, now, 100) // 30-record gap: loss
	tr.Tick(now)

	code, body := get(t, New(e, Attached{Journal: j, Exporters: tr}), "/ipd/exporters")
	if code != http.StatusOK {
		t.Fatalf("exporters = %d, want 200 (body %v)", code, body)
	}
	if got := body["tracked_feeds"]; got != 1.0 {
		t.Errorf("tracked_feeds = %v, want 1", got)
	}
	feeds, ok := body["exporters"].([]any)
	if !ok || len(feeds) != 1 {
		t.Fatalf("exporters list = %v, want one feed", body["exporters"])
	}
	f0 := feeds[0].(map[string]any)
	if f0["key"] != "netflow:R2" || f0["lost_records"] != 30.0 || f0["records"] != 20.0 {
		t.Errorf("feed = %v, want netflow:R2 with 30 lost of 20 received", f0)
	}
	if f0["loss_frac"].(float64) <= 0 || f0["coverage"].(float64) >= 1 {
		t.Errorf("feed loss/coverage = %v / %v, want lossy and degraded", f0["loss_frac"], f0["coverage"])
	}
}

// TestExplainCoverageAnnotation checks that a degraded input feed surfaces
// in /ipd/explain as the coverage key.
func TestExplainCoverageAnnotation(t *testing.T) {
	j := journal.New(journal.Options{})
	cfg := testConfig()
	cfg.OnEvent = j.Record
	cfg.Coverage = func(flow.Ingress) (float64, float64, bool) { return 0.4, 0.9, true }
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)
	for cycle := 0; cycle < 5; cycle++ {
		for _, q := range quadrants {
			a := netip.MustParseAddr(q.base).As4()
			for i := 0; i < 20; i++ {
				a[3] = byte(i)
				e.Observe(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: q.in, Bytes: 1200, Packets: 1})
			}
		}
		ts = ts.Add(time.Minute)
		e.AdvanceTo(ts)
	}
	h := New(e, Attached{Journal: j})

	code, body := get(t, h, "/ipd/explain?ip=70.0.0.1")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	cov, ok := body["coverage"].(map[string]any)
	if !ok {
		t.Fatalf("no coverage key in %v", body)
	}
	if cov["code"] != "degraded-coverage" {
		t.Errorf("coverage code = %v", cov["code"])
	}
	ct, _ := body["coverage_text"].(string)
	if !strings.Contains(ct, "coverage") {
		t.Errorf("coverage_text = %q", ct)
	}
}
