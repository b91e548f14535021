package node

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"ipd/internal/introspect"
	"ipd/internal/telemetry"
)

// Handler returns the debug surface over the attached server: /metrics
// (Prometheus), /debug/vars (JSON), /debug/pprof/, the /ipd/ introspection
// API, and, while tracing runs, the watchdog's /healthz and /readyz. Callers
// may mount more routes on the returned mux. Call after Attach.
func (n *Node) Handler() *http.ServeMux {
	reg := n.srv.Telemetry()
	telemetry.RegisterProcessMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", reg.JSONHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	a := introspect.Attached{
		Journal:   n.Journal,
		Governor:  n.Governor,
		Timeline:  n.Timeline,
		Exporters: n.Health,
		Workload:  n.Workload,
	}
	if n.Tracer != nil {
		a.Traces = n.Tracer.Recorder()
	}
	if n.Config.Sketch {
		a.Sketch = n.srv.SketchStatus
	}
	mux.Handle("/ipd/", introspect.New(n.srv, a))
	if n.watchdog != nil {
		mux.Handle("/healthz", n.watchdog.HealthzHandler())
		mux.Handle("/readyz", n.watchdog.ReadyzHandler())
	}
	return mux
}

// Serve serves h on ln until ctx is done, then shuts the server down,
// giving in-flight requests two seconds. It returns nil after that shutdown
// and the serve error otherwise. The caller binds ln, so a bind error comes
// before anything is served and ln.Addr() names the port a ":0" got.
func Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	stopped := make(chan struct{})
	defer close(stopped)
	go func() {
		select {
		case <-ctx.Done():
		case <-stopped:
			return
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
