package core

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"ipd/internal/governor"
	"ipd/internal/telemetry"
	"ipd/internal/trace"
)

// WatchdogConfig configures a cycle Watchdog.
type WatchdogConfig struct {
	// Interval is the stage-2 bucket interval t (Config.T). Required.
	Interval time.Duration

	// Registry, when non-nil, receives ipd_cycle_overrun_total,
	// ipd_watchdog_stalled, and ipd_watchdog_last_cycle_age_seconds.
	Registry *telemetry.Registry

	// Now overrides the wall clock (tests); nil means time.Now.
	Now func() time.Time
}

const (
	// maxCycleFraction is the fraction of the interval a cycle may take
	// before it counts as an overrun (the paper's deployment-viability
	// requirement is that cycles finish well inside t).
	maxCycleFraction = 0.8
	// stallFactor is the multiple of the interval after which the absence
	// of a completed cycle flips liveness: no cycle within stallFactor*t of
	// the last one (or of arming) means the pipeline is stalled.
	stallFactor = 3
)

// Watchdog watches stage-2 cycle spans and derives the health of the
// pipeline from them, lazily at request time — no background goroutine.
//
//   - Healthy (liveness, /healthz): a cycle completed within
//     stallFactor*Interval of now (measured from arming before the first
//     cycle). A stalled pipeline — wedged ingest, a cycle that never
//     returns — goes unhealthy.
//   - Ready (readiness, /readyz): Healthy, and the last completed cycle did
//     not overrun maxCycleFraction*Interval. An overloaded instance stops
//     being ready before it stops being alive.
//
// Subscribe it to a Tracer with tracer.SetOnSpan(w.ObserveSpan); only
// PhaseCycle spans are consulted, and those are always recorded (never
// sampled). All methods are safe for concurrent use.
type Watchdog struct {
	interval   time.Duration
	maxCycle   time.Duration
	stallAfter time.Duration
	now        func() time.Time

	armed       int64        // unix nanos at construction
	lastEnd     atomic.Int64 // unix nanos of the last completed cycle
	lastOverrun atomic.Bool
	overruns    *telemetry.Counter

	gov atomic.Pointer[governor.Governor]
}

// NewWatchdog returns a watchdog armed at cfg.Now() (the stall window starts
// counting immediately, so an instance that never completes a first cycle
// goes unhealthy too).
func NewWatchdog(cfg WatchdogConfig) (*Watchdog, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("core: watchdog Interval %v must be positive", cfg.Interval)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	w := &Watchdog{
		interval:   cfg.Interval,
		maxCycle:   time.Duration(maxCycleFraction * float64(cfg.Interval)),
		stallAfter: time.Duration(stallFactor * float64(cfg.Interval)),
		now:        now,
		armed:      now().UnixNano(),
	}
	if reg := cfg.Registry; reg != nil {
		w.overruns = reg.Counter("ipd_cycle_overrun_total",
			"Stage-2 cycles whose wall-clock runtime exceeded the configured fraction of the bucket interval t.")
		reg.GaugeFunc("ipd_watchdog_stalled",
			"1 when no stage-2 cycle completed within the stall window, else 0.", func() float64 {
				if w.Healthy() {
					return 0
				}
				return 1
			})
		reg.GaugeFunc("ipd_watchdog_last_cycle_age_seconds",
			"Seconds since the last completed stage-2 cycle (since arming before the first).", func() float64 {
				return w.lastCycleAge().Seconds()
			})
	} else {
		w.overruns = new(telemetry.Counter)
	}
	return w, nil
}

// ObserveSpan feeds one completed span to the watchdog. Only PhaseCycle
// spans matter; everything else returns immediately, so it can serve
// directly as a Tracer OnSpan hook.
func (w *Watchdog) ObserveSpan(sp trace.Span) {
	if sp.Phase != trace.PhaseCycle {
		return
	}
	over := sp.Wall > w.maxCycle
	if over {
		w.overruns.Inc()
	}
	w.lastOverrun.Store(over)
	w.lastEnd.Store(w.now().UnixNano())
}

// lastCycleAge returns the time since the last completed cycle, or since
// arming when none has completed yet.
func (w *Watchdog) lastCycleAge() time.Duration {
	last := w.lastEnd.Load()
	if last == 0 {
		last = w.armed
	}
	return w.now().Sub(time.Unix(0, last))
}

// SetGovernor ties readiness to the resource governor: while the governor
// is in its emergency state the instance reports not-ready, so a load
// balancer stops routing new traffic at it while it sheds state. nil
// detaches.
func (w *Watchdog) SetGovernor(g *governor.Governor) { w.gov.Store(g) }

// governorEmergency reports whether an attached governor is in emergency.
func (w *Watchdog) governorEmergency() bool {
	g := w.gov.Load()
	return g != nil && g.State() == governor.StateEmergency
}

// Healthy reports liveness: a cycle completed within the stall window.
func (w *Watchdog) Healthy() bool { return w.lastCycleAge() <= w.stallAfter }

// Ready reports readiness: Healthy, the last cycle did not overrun, and an
// attached governor (SetGovernor) is not in emergency.
func (w *Watchdog) Ready() bool {
	return w.Healthy() && !w.lastOverrun.Load() && !w.governorEmergency()
}

// HealthzHandler serves liveness: 200 "ok" while Healthy, 503 with the last
// cycle age once stalled. Mount at /healthz.
func (w *Watchdog) HealthzHandler() http.Handler {
	return w.checkHandler(w.Healthy, "stalled")
}

// ReadyzHandler serves readiness: 200 "ok" while Ready, 503 otherwise. The
// failure body names the cause — governor emergency is reported distinctly
// from overrun/stall so operators can tell overload shedding from a wedged
// pipeline. Mount at /readyz.
func (w *Watchdog) ReadyzHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if w.governorEmergency() {
			rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rw.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(rw, "not ready: governor state %s (resource budgets exceeded, shedding state)\n",
				governor.StateEmergency)
			return
		}
		w.checkHandler(w.Ready, "not ready").ServeHTTP(rw, r)
	})
}

func (w *Watchdog) checkHandler(ok func() bool, fail string) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ok() {
			rw.WriteHeader(http.StatusOK)
			fmt.Fprintln(rw, "ok")
			return
		}
		rw.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(rw, "%s: last cycle %s ago (stall window %s, max cycle %s)\n",
			fail, w.lastCycleAge().Round(time.Millisecond), w.stallAfter, w.maxCycle)
	})
}
