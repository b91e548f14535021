// Package introspect serves the decision-provenance HTTP API over a live
// engine and its journal:
//
//	GET /ipd/                                             endpoint index
//	GET /ipd/ranges?classified=&ingress=&family=&limit=   filterable snapshot
//	GET /ipd/range?prefix=10.0.0.0/8                      one range + history
//	GET /ipd/explain?ip=10.1.2.3                          LPM walk + votes + reasons
//	GET /ipd/events?since=<seq>&limit=                    tail the journal
//	GET /ipd/traces?limit=&phase=                         tail the flight recorder
//	GET /ipd/governor                                     resource-governor state + budgets
//	GET /ipd/timeline?series=&from=&to=&format=           windowed time series (JSON or CSV)
//	GET /ipd/alerts                                       active + recent flap/drift/exporter alerts
//	GET /ipd/exporters                                    per-exporter feed health + coverage
//	GET /ipd/workload                                     workload heavy hitters + latency
//	GET /ipd/sketch                                       fixed-memory sketch tier status + ε/δ bound
//
// The handlers read through a Source (core.Server implements it) and never
// mutate, so mounting them on the debug mux of a running binary is safe.
//
// Error handling is uniform across all endpoints: every response is JSON; a
// malformed query parameter is 400 with an {"error": ...} body naming the
// parameter, a request for a subsystem that is not attached is 404, an
// unknown /ipd/* path is 404 from the index route, and any method other
// than GET is 405 with an Allow header.
package introspect

import (
	"encoding/json"
	"net/http"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"ipd/internal/core"
	"ipd/internal/exphealth"
	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/journal"
	"ipd/internal/timeline"
	"ipd/internal/trace"
	"ipd/internal/workload"
)

// Source is the live engine view the handlers read. All methods must be
// safe for concurrent use (core.Server qualifies; a bare core.Engine needs
// a locking wrapper).
type Source interface {
	// Snapshot returns all active ranges.
	Snapshot() []core.RangeInfo
	// Range returns the active range covering addr.
	Range(addr netip.Addr) (core.RangeInfo, bool)
	// Explain reports the LPM walk, vote shares, and threshold verdict for
	// addr.
	Explain(addr netip.Addr) (core.Explanation, bool)
}

// Handler serves the /ipd/* introspection endpoints.
type Handler struct {
	mux    *http.ServeMux
	routes []RouteInfo
	src    Source
	a      Attached
}

// Attached lists the optional subsystems a Handler serves next to its
// Source. A nil field disables its endpoints: they answer 404.
type Attached struct {
	Journal   *journal.Journal    // history fields and /ipd/events
	Traces    *trace.Recorder     // /ipd/traces
	Governor  *governor.Governor  // /ipd/governor
	Timeline  *timeline.Collector // /ipd/timeline and /ipd/alerts
	Exporters *exphealth.Tracker  // /ipd/exporters
	Workload  *workload.Profiler  // /ipd/workload

	// Sketch reads the engine's sketch-tier status under the engine's lock
	// (/ipd/sketch).
	Sketch func() core.SketchStatus
}

// RouteInfo describes one mounted endpoint in the GET /ipd/ index.
type RouteInfo struct {
	Path        string `json:"path"`
	Description string `json:"description"`
}

// New builds the handler over src and the subsystems in a. Without a
// journal the snapshot and explain endpoints still work; only event history
// is unavailable. Every route is listed in the index whether or not its
// subsystem is attached.
func New(src Source, a Attached) *Handler {
	h := &Handler{mux: http.NewServeMux(), src: src, a: a}
	h.handle("/ipd/ranges", "filterable snapshot of active ranges (classified=, ingress=, family=, limit=)", h.ranges)
	h.handle("/ipd/range", "one range with its journal history (prefix=)", h.rangeOne)
	h.handle("/ipd/explain", "LPM walk, vote shares, and threshold verdict for an address (ip=)", h.explain)
	h.handle("/ipd/events", "tail of the decision journal (since=, limit=)", h.events)
	h.handle("/ipd/traces", "tail of the pipeline flight recorder (limit=, phase=)", h.traces)
	h.handle("/ipd/governor", "resource-governor state and budget utilization", h.governor)
	h.handle("/ipd/timeline", "windowed per-cycle time series (series=, from=, to=, format=json|csv)", h.timeline)
	h.handle("/ipd/alerts", "active and recent analytics alerts", h.alerts)
	h.handle("/ipd/exporters", "per-exporter feed health and coverage", h.exporters)
	h.handle("/ipd/workload", "workload profile: heavy hitters, latency", h.workloadSnapshot)
	h.handle("/ipd/sketch", "fixed-memory sketch tier: sizing, accuracy bound, and mode-flip counters", h.sketchStatus)
	// The subtree pattern catches "/ipd/" itself (the index) and every
	// otherwise-unmatched /ipd/* path (404). Registered last for clarity;
	// ServeMux picks the longest pattern regardless of order.
	h.mux.HandleFunc("/ipd/", h.index)
	return h
}

// handle registers one GET endpoint: it records the route for the index and
// wraps the handler with the uniform method check, so every endpoint shares
// the same 405 behavior by construction.
func (h *Handler) handle(path, desc string, fn http.HandlerFunc) {
	h.routes = append(h.routes, RouteInfo{Path: path, Description: desc})
	h.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if !checkGet(w, r) {
			return
		}
		fn(w, r)
	})
}

// checkGet enforces the read-only contract: anything but GET (and HEAD,
// which net/http serves from the GET response) is 405 with an Allow header.
func checkGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET")
		writeErr(w, http.StatusMethodNotAllowed, "method "+r.Method+" not allowed; endpoints are read-only GET")
		return false
	}
	return true
}

// Routes returns the mounted endpoints as served by the GET /ipd/ index.
func (h *Handler) Routes() []RouteInfo { return append([]RouteInfo(nil), h.routes...) }

// index serves GET /ipd/ — the endpoint catalog — and, because it owns the
// /ipd/ subtree, turns every unregistered /ipd/* path into a JSON 404.
func (h *Handler) index(w http.ResponseWriter, r *http.Request) {
	if !checkGet(w, r) {
		return
	}
	if r.URL.Path != "/ipd/" && r.URL.Path != "/ipd" {
		writeErr(w, http.StatusNotFound, "unknown endpoint "+r.URL.Path+"; GET /ipd/ lists the available ones")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"endpoints": h.routes})
}

// ServeHTTP dispatches to the /ipd/* routes.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// rangeJSON is the wire form of core.RangeInfo.
type rangeJSON struct {
	Prefix       string             `json:"prefix"`
	Classified   bool               `json:"classified"`
	Ingress      string             `json:"ingress,omitempty"`
	Confidence   float64            `json:"confidence"`
	Samples      float64            `json:"samples"`
	NCidr        float64            `json:"n_cidr"`
	LastSeen     *time.Time         `json:"last_seen,omitempty"`
	ClassifiedAt *time.Time         `json:"classified_at,omitempty"`
	Counters     map[string]float64 `json:"counters,omitempty"`
	Bytes        float64            `json:"bytes"`
	Sketched     bool               `json:"sketched,omitempty"`
}

func toRangeJSON(ri core.RangeInfo) rangeJSON {
	out := rangeJSON{
		Prefix:     ri.Prefix.String(),
		Classified: ri.Classified,
		Confidence: ri.Confidence,
		Samples:    ri.Samples,
		NCidr:      ri.NCidr,
		Bytes:      ri.Bytes,
		Sketched:   ri.Sketched,
	}
	if ri.Classified || ri.Samples > 0 {
		out.Ingress = ri.Ingress.String()
	}
	if !ri.LastSeen.IsZero() {
		t := ri.LastSeen
		out.LastSeen = &t
	}
	if !ri.ClassifiedAt.IsZero() {
		t := ri.ClassifiedAt
		out.ClassifiedAt = &t
	}
	if len(ri.Counters) > 0 {
		out.Counters = make(map[string]float64, len(ri.Counters))
		for in, c := range ri.Counters {
			out.Counters[in.String()] = c
		}
	}
	return out
}

// eventJSON decorates a core.Event with the rendered reason, so curl users
// read decisions without decoding reason structs.
type eventJSON struct {
	core.Event
	ReasonText string `json:"reason_text"`
}

func toEventJSON(evs []core.Event) []eventJSON {
	out := make([]eventJSON, len(evs))
	for i, ev := range evs {
		out[i] = eventJSON{Event: ev, ReasonText: ev.Reason.String()}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// ranges serves GET /ipd/ranges. Filters: classified=true|false,
// ingress=R<router>.<iface>, family=4|6, limit=N. total counts matches
// before the limit is applied.
func (h *Handler) ranges(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var (
		wantClass *bool
		wantIn    *flow.Ingress
		family    int
	)
	if s := q.Get("classified"); s != "" {
		b, err := strconv.ParseBool(s)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "classified must be true or false")
			return
		}
		wantClass = &b
	}
	if s := q.Get("ingress"); s != "" {
		var in flow.Ingress
		if err := in.UnmarshalText([]byte(s)); err != nil {
			writeErr(w, http.StatusBadRequest, "ingress must look like R12.3")
			return
		}
		wantIn = &in
	}
	if s := q.Get("family"); s != "" {
		f, err := strconv.Atoi(s)
		if err != nil || (f != 4 && f != 6) {
			writeErr(w, http.StatusBadRequest, "family must be 4 or 6")
			return
		}
		family = f
	}
	limit := 0
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		limit = n
	}

	all := h.src.Snapshot()
	matched := make([]rangeJSON, 0, len(all))
	for _, ri := range all {
		if wantClass != nil && ri.Classified != *wantClass {
			continue
		}
		if wantIn != nil && (!ri.Classified || ri.Ingress != *wantIn) {
			continue
		}
		if family == 4 && !ri.Prefix.Addr().Is4() {
			continue
		}
		if family == 6 && ri.Prefix.Addr().Is4() {
			continue
		}
		matched = append(matched, toRangeJSON(ri))
	}
	total := len(matched)
	if limit > 0 && len(matched) > limit {
		matched = matched[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  total,
		"count":  len(matched),
		"ranges": matched,
	})
}

// rangeOne serves GET /ipd/range?prefix=. The prefix must match an active
// range exactly; the response joins the live state with the journal history
// of that prefix.
func (h *Handler) rangeOne(w http.ResponseWriter, r *http.Request) {
	s := r.URL.Query().Get("prefix")
	if s == "" {
		writeErr(w, http.StatusBadRequest, "missing prefix parameter")
		return
	}
	p, err := netip.ParsePrefix(s)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad prefix: "+err.Error())
		return
	}
	p = netip.PrefixFrom(p.Addr().Unmap(), p.Bits()).Masked()
	// The snapshot is the exact-match source: Range(addr) would LPM past a
	// prefix that is currently subdivided.
	var (
		ri    core.RangeInfo
		found bool
	)
	for _, cand := range h.src.Snapshot() {
		if cand.Prefix == p {
			ri, found = cand, true
			break
		}
	}
	resp := map[string]any{"active": found}
	if found {
		resp["range"] = toRangeJSON(ri)
	}
	if h.a.Journal != nil {
		resp["history"] = toEventJSON(h.a.Journal.History(p.String()))
	}
	if !found && h.a.Journal == nil {
		writeErr(w, http.StatusNotFound, "prefix is not an active range")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// explain serves GET /ipd/explain?ip=: the LPM walk through the active
// partition, the matched range with its per-ingress vote shares, the
// threshold verdict, and (with a journal) the reason chain of events that
// produced the current state.
func (h *Handler) explain(w http.ResponseWriter, r *http.Request) {
	s := r.URL.Query().Get("ip")
	if s == "" {
		writeErr(w, http.StatusBadRequest, "missing ip parameter")
		return
	}
	addr, err := netip.ParseAddr(s)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad ip: "+err.Error())
		return
	}
	ex, ok := h.src.Explain(addr)
	if !ok {
		writeErr(w, http.StatusNotFound, "no active range covers this address")
		return
	}
	path := make([]string, len(ex.Path))
	for i, p := range ex.Path {
		path[i] = p.String()
	}
	shares := make([]map[string]any, len(ex.Shares))
	for i, sh := range ex.Shares {
		shares[i] = map[string]any{
			"ingress": sh.Ingress.String(),
			"count":   sh.Count,
			"share":   sh.Share,
		}
	}
	resp := map[string]any{
		"ip":           ex.IP.String(),
		"path":         path,
		"range":        toRangeJSON(ex.Range),
		"shares":       shares,
		"verdict":      ex.Verdict,
		"verdict_text": ex.VerdictString(),
	}
	if ex.Coverage != nil {
		resp["coverage"] = ex.Coverage
		resp["coverage_text"] = ex.Coverage.String()
	}
	if ex.Sketch != nil {
		resp["sketch"] = ex.Sketch
		resp["sketch_text"] = ex.Sketch.String()
	}
	if h.a.Journal != nil {
		// The reason chain: every journal event that touched the matched
		// range or one of the ancestors it was carved out of.
		chain := h.a.Journal.History(ex.Range.Prefix.String())
		seen := map[uint64]bool{}
		for _, ev := range chain {
			seen[ev.Seq] = true
		}
		for _, anc := range path[:max(0, len(path)-1)] {
			for _, ev := range h.a.Journal.History(anc) {
				if !seen[ev.Seq] {
					chain = append(chain, ev)
					seen[ev.Seq] = true
				}
			}
		}
		sort.Slice(chain, func(i, k int) bool { return chain[i].Seq < chain[k].Seq })
		resp["history"] = toEventJSON(chain)
	}
	writeJSON(w, http.StatusOK, resp)
}

// events serves GET /ipd/events?since=<seq>&limit=: the retained journal
// tail, oldest first. Clients poll with since=<last seen seq>; dropped
// reports how many events have been lost to ring overflow so a client can
// detect gaps.
func (h *Handler) events(w http.ResponseWriter, r *http.Request) {
	if h.a.Journal == nil {
		writeErr(w, http.StatusNotFound, "no journal attached")
		return
	}
	q := r.URL.Query()
	var since uint64
	if s := q.Get("since"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "since must be a sequence number")
			return
		}
		since = n
	}
	limit := 1000
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	evs := h.a.Journal.Since(since, limit)
	oldest, newest := h.a.Journal.Bounds()
	writeJSON(w, http.StatusOK, map[string]any{
		"oldest_seq": oldest,
		"latest_seq": newest,
		"dropped":    h.a.Journal.Dropped(),
		"count":      len(evs),
		"events":     toEventJSON(evs),
	})
}

// governor serves GET /ipd/governor: the resource governor's current state,
// per-budget utilization, transition counts, and downgrade-hold progress —
// the first stop when an instance reports not-ready or starts shedding.
func (h *Handler) governor(w http.ResponseWriter, _ *http.Request) {
	if h.a.Governor == nil {
		writeErr(w, http.StatusNotFound, "no governor attached")
		return
	}
	writeJSON(w, http.StatusOK, h.a.Governor.Snapshot())
}

// sketchStatus serves GET /ipd/sketch: the fixed-memory sketch tier's sizing
// (width/depth/generations), its ε/δ accuracy bound, the memory it pins, and
// the degrade/hydrate counters — the operator's view of how much of the
// partition runs on approximate evidence and how tight that approximation is.
func (h *Handler) sketchStatus(w http.ResponseWriter, _ *http.Request) {
	if h.a.Sketch == nil {
		writeErr(w, http.StatusNotFound, "no sketch tier attached")
		return
	}
	writeJSON(w, http.StatusOK, h.a.Sketch())
}

// timeline serves GET /ipd/timeline?series=&from=&to=&format=: the windowed
// time-series history. series is a comma-separated name filter (empty means
// all; unknown names are silently absent); from/to bound the cycle window
// (0/absent means unbounded); format=csv streams the CSV export instead of
// JSON. The JSON body carries the available series names, the newest sample
// cycle, and the convergence histogram alongside the windowed points.
func (h *Handler) timeline(w http.ResponseWriter, r *http.Request) {
	if h.a.Timeline == nil {
		writeErr(w, http.StatusNotFound, "no timeline attached")
		return
	}
	q := r.URL.Query()
	var names []string
	if s := q.Get("series"); s != "" {
		for _, n := range strings.Split(s, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	var from, to uint64
	for _, p := range []struct {
		key string
		dst *uint64
	}{{"from", &from}, {"to", &to}} {
		if s := q.Get(p.key); s != "" {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, p.key+" must be a cycle number")
				return
			}
			*p.dst = n
		}
	}
	switch q.Get("format") {
	case "", "json":
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		_ = h.a.Timeline.WriteCSV(w, names, from, to)
		return
	default:
		writeErr(w, http.StatusBadRequest, "format must be json or csv")
		return
	}
	cycle, at := h.a.Timeline.LastCycle()
	resp := map[string]any{
		"last_cycle":  cycle,
		"names":       h.a.Timeline.Store().Names(),
		"window":      h.a.Timeline.Store().Window(),
		"downsample":  h.a.Timeline.Store().Downsample(),
		"series":      h.a.Timeline.Window(names, from, to),
		"convergence": h.a.Timeline.Convergence(),
	}
	if !at.IsZero() {
		resp["last_at"] = at
	}
	writeJSON(w, http.StatusOK, resp)
}

// alerts serves GET /ipd/alerts: the currently raised flap/drift alerts and
// the bounded raise/clear history — the operator's first stop when an
// ingress mapping looks unstable.
func (h *Handler) alerts(w http.ResponseWriter, _ *http.Request) {
	if h.a.Timeline == nil {
		writeErr(w, http.StatusNotFound, "no timeline attached")
		return
	}
	writeJSON(w, http.StatusOK, h.a.Timeline.Alerts())
}

// exporters serves GET /ipd/exporters: every exporter feed's loss, skew,
// staleness, and coverage state plus the aggregate summary — the operator's
// first stop when the classified map looks wrong and the question is "did
// the network move, or did an exporter break".
func (h *Handler) exporters(w http.ResponseWriter, _ *http.Request) {
	if h.a.Exporters == nil {
		writeErr(w, http.StatusNotFound, "no exporter-health tracker attached")
		return
	}
	writeJSON(w, http.StatusOK, h.a.Exporters.Snapshot())
}

// workloadSnapshot serves GET /ipd/workload: the profiler's heavy-hitter
// table with per-ingress attribution and the end-to-end latency
// distributions.
func (h *Handler) workloadSnapshot(w http.ResponseWriter, _ *http.Request) {
	if h.a.Workload == nil {
		writeErr(w, http.StatusNotFound, "no workload profiler attached")
		return
	}
	writeJSON(w, http.StatusOK, h.a.Workload.Snapshot())
}

// traces serves GET /ipd/traces?limit=&phase=: the flight recorder's span
// tail, oldest first. phase filters to one pipeline phase (read, bin,
// observe, snapshot, decay, classify, split, join, drop, cycle); dropped
// reports ring overflow so a client can detect gaps.
func (h *Handler) traces(w http.ResponseWriter, r *http.Request) {
	if h.a.Traces == nil {
		writeErr(w, http.StatusNotFound, "no tracer attached")
		return
	}
	q := r.URL.Query()
	limit := 1000
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	var phaseFilter *trace.Phase
	if s := q.Get("phase"); s != "" {
		p, ok := trace.ParsePhase(s)
		if !ok {
			writeErr(w, http.StatusBadRequest, "unknown phase "+strconv.Quote(s))
			return
		}
		phaseFilter = &p
	}
	// With a phase filter the tail is taken unlimited and filtered, so
	// limit bounds matching spans rather than scanned ones.
	spans := h.a.Traces.Tail(0)
	if phaseFilter != nil {
		kept := spans[:0]
		for _, sp := range spans {
			if sp.Phase == *phaseFilter {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	if len(spans) > limit {
		spans = spans[len(spans)-limit:]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"recorded": h.a.Traces.Recorded(),
		"dropped":  h.a.Traces.Dropped(),
		"capacity": h.a.Traces.Capacity(),
		"count":    len(spans),
		"spans":    spans,
	})
}
