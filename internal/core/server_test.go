package core

import (
	"context"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/stattime"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	st := stattime.DefaultConfig()
	s, err := NewServer(testConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestServerEndToEnd(t *testing.T) {
	s := testServer(t)
	q := NewIngestQueue(400)
	done := make(chan error, 1)
	go func() { done <- s.RunQueue(context.Background(), q) }()

	a := netip.MustParseAddr("10.0.0.0").As4()
	ts := base
	for cycle := 0; cycle < 4; cycle++ {
		for i := 0; i < 100; i++ {
			a[3] = byte(i)
			q.Offer(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: inA, Bytes: 100})
		}
		ts = ts.Add(time.Minute)
	}
	q.Close()
	if err := <-done; err != nil {
		t.Fatalf("RunQueue: %v", err)
	}
	if q.Shed() != 0 {
		t.Fatalf("queue shed %d records", q.Shed())
	}
	mapped := s.Mapped()
	if len(mapped) != 1 || mapped[0].Ingress != inA {
		t.Fatalf("mapped = %+v", mapped)
	}
	lt := s.LookupTable()
	if _, got, ok := lt.Lookup(netip.MustParseAddr("10.0.0.5")); !ok || got != inA {
		t.Errorf("LookupTable = %v ok=%v", got, ok)
	}
	if ri, ok := s.Range(netip.MustParseAddr("10.0.0.5")); !ok || !ri.Classified {
		t.Errorf("Range = %+v ok=%v", ri, ok)
	}
	eng, bin := s.Stats()
	if eng.Records != 400 || bin.Accepted != 400 {
		t.Errorf("stats: engine %d, binner %d", eng.Records, bin.Accepted)
	}
}

func TestServerContextCancel(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunQueue(ctx, NewIngestQueue(1)) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("RunQueue = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RunQueue did not return after cancel")
	}
}

// TestServerConcurrentSnapshots hammers snapshots while records stream in;
// run with -race this validates the locking.
func TestServerConcurrentSnapshots(t *testing.T) {
	s := testServer(t)
	q := NewIngestQueue(2000)
	done := make(chan error, 1)
	go func() { done <- s.RunQueue(context.Background(), q) }()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Snapshot()
				s.Mapped()
				s.LookupTable()
				s.Stats()
			}
		}()
	}

	a := netip.MustParseAddr("77.0.0.0").As4()
	ts := base
	for cycle := 0; cycle < 10; cycle++ {
		for i := 0; i < 200; i++ {
			a[3] = byte(i)
			a[2] = byte(cycle)
			q.Offer(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: inB, Bytes: 64})
		}
		ts = ts.Add(30 * time.Second)
	}
	q.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	eng, _ := s.Stats()
	if eng.Records != 2000 || q.Shed() != 0 {
		t.Errorf("Records = %d, shed = %d", eng.Records, q.Shed())
	}
}

// TestServerConcurrentTelemetryScrapes runs ingest while parallel
// goroutines hammer every reader surface — Snapshot, Mapped, Range, the
// lock-free Stats, and /metrics + /debug/vars scrapes — then checks the
// final exposition is consistent. With -race this validates that the
// telemetry layer really does keep scrapes off the ingest lock.
func TestServerConcurrentTelemetryScrapes(t *testing.T) {
	s := testServer(t)
	metrics := s.Telemetry().Handler()
	vars := s.Telemetry().JSONHandler()
	q := NewIngestQueue(1200)
	done := make(chan error, 1)
	go func() { done <- s.RunQueue(context.Background(), q) }()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Snapshot()
				s.Mapped()
				s.Range(netip.MustParseAddr("10.1.2.3"))
				s.Stats()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				metrics.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if !strings.Contains(rec.Body.String(), "ipd_records_total") {
					t.Error("scrape missing ipd_records_total")
					return
				}
				rec = httptest.NewRecorder()
				vars.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
			}
		}()
	}

	a := netip.MustParseAddr("10.0.0.0").As4()
	ts := base
	for cycle := 0; cycle < 8; cycle++ {
		for i := 0; i < 150; i++ {
			a[3] = byte(i)
			q.Offer(flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: inA, Bytes: 64})
		}
		ts = ts.Add(time.Minute)
	}
	q.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if q.Shed() != 0 {
		t.Fatalf("queue shed %d records", q.Shed())
	}

	rec := httptest.NewRecorder()
	metrics.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"ipd_records_total 1200",
		"ipd_active_ranges",
		"ipd_cycle_duration_seconds_bucket",
		"ipd_cycle_duration_seconds_count",
		"ipd_stattime_accepted_total 1200",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("final exposition missing %q:\n%s", want, body)
		}
	}
}
