package ipd_test

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"ipd"
	"ipd/internal/trafficgen"
)

var t0 = time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)

func quickConfig() ipd.Config {
	cfg := ipd.DefaultConfig()
	cfg.NCidrFactor4 = 0.001
	cfg.NCidrFactor6 = 1e-8
	return cfg
}

func TestDefaultConfigIsTable1(t *testing.T) {
	cfg := ipd.DefaultConfig()
	if cfg.CIDRMax4 != 28 || cfg.CIDRMax6 != 48 {
		t.Errorf("cidr_max = %d/%d", cfg.CIDRMax4, cfg.CIDRMax6)
	}
	if cfg.NCidrFactor4 != 64 || cfg.NCidrFactor6 != 24 {
		t.Errorf("factors = %v/%v", cfg.NCidrFactor4, cfg.NCidrFactor6)
	}
	if cfg.Q != 0.95 || cfg.T != time.Minute || cfg.E != 2*time.Minute {
		t.Errorf("q/t/e = %v/%v/%v", cfg.Q, cfg.T, cfg.E)
	}
}

// TestEngineQuickstart runs the README quickstart: the one record path,
// NewServer -> Ingest -> Finish, then Mapped and LookupTable.
func TestEngineQuickstart(t *testing.T) {
	srv, err := ipd.NewServer(quickConfig(), ipd.DefaultStatTimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := ipd.Ingress{Router: 7, Iface: 2}
	a := netip.MustParseAddr("192.0.2.0").As4()
	batch := make([]ipd.Record, 100)
	for i := range batch {
		a[3] = byte(i)
		batch[i] = ipd.Record{Ts: t0, Src: netip.AddrFrom4(a), In: in, Bytes: 100, Packets: 1}
	}
	srv.Ingest(batch)
	srv.Finish()
	mapped := srv.Mapped()
	if len(mapped) != 1 || mapped[0].Ingress != in {
		t.Fatalf("mapped = %+v", mapped)
	}
	lt := srv.LookupTable()
	if _, got, ok := lt.Lookup(netip.MustParseAddr("192.0.2.50")); !ok || got != in {
		t.Errorf("lookup = %v ok=%v", got, ok)
	}
	var buf bytes.Buffer
	if err := ipd.WriteOutputSnapshot(&buf, t0, mapped, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "R7.2") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestServerFacade(t *testing.T) {
	srv, err := ipd.NewServer(quickConfig(), ipd.DefaultStatTimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := ipd.NewIngestQueue(300)
	done := make(chan error, 1)
	go func() { done <- srv.RunQueue(context.Background(), q) }()
	in := ipd.Ingress{Router: 1, Iface: 1}
	a := netip.MustParseAddr("10.0.0.0").As4()
	for m := 0; m < 3; m++ {
		for i := 0; i < 100; i++ {
			a[3] = byte(i)
			q.Offer(ipd.Record{Ts: t0.Add(time.Duration(m) * time.Minute), Src: netip.AddrFrom4(a), In: in, Bytes: 64})
		}
	}
	q.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if q.Shed() != 0 {
		t.Fatalf("queue shed %d records", q.Shed())
	}
	if got := srv.Mapped(); len(got) != 1 {
		t.Fatalf("mapped = %+v", got)
	}
}

func TestTraceRoundTripFacade(t *testing.T) {
	var buf bytes.Buffer
	w := ipd.NewTraceWriter(&buf)
	rec := ipd.Record{Ts: t0, Src: netip.MustParseAddr("203.0.113.5"), In: ipd.Ingress{Router: 3, Iface: 9}, Bytes: 1000}
	if err := w.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ipd.NewTraceReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != rec.Src || got.In != rec.In {
		t.Errorf("round trip = %+v", got)
	}
}

func TestSimScenarioFacade(t *testing.T) {
	scn, err := ipd.NewSimScenario(ipd.DefaultSimSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(scn.ASes) == 0 || scn.Topo == nil {
		t.Fatal("empty scenario")
	}
	cfg := trafficgen.DefaultGenConfig()
	cfg.FlowsPerMinute = 500
	n := 0
	err = scn.Stream(scn.Start, scn.Start.Add(2*time.Minute), cfg, func(ipd.Record) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records generated")
	}
}

// TestFacadeSurface pins the names ipd.go exports. The facade re-exports only
// what the repository's commands, examples and benchmark use, so a new name
// is a deliberate change to this list, not drift.
func TestFacadeSurface(t *testing.T) {
	want := []string{
		"AlertClockSkew", "AlertDrift", "AlertExporterLoss", "AlertExporterStale",
		"AlertFlap", "AlertHotPrefix", "Config",
		"DefaultConfig", "DefaultSimSpec", "DefaultStatTimeConfig",
		"Engine", "Event", "EventAlertCleared",
		"EventAlertRaised", "EventClassified", "ExporterHealth",
		"ExporterHealthOptions", "FlowSampler", "Governor", "GovernorConfig",
		"GovernorDegraded", "GovernorEmergency", "GovernorNormal", "GovernorState",
		"IfaceID", "IngestQueue", "Ingress", "Journal", "JournalOptions",
		"NewEngine", "NewExporterHealth",
		"NewFlowMetrics", "NewFlowSampler", "NewGovernor", "NewIngestQueue",
		"NewJournal", "NewServer", "NewSimRecordFaults", "NewSimScenario",
		"NewSimV5Packer", "NewTimelineCollector", "NewTraceReader", "NewTraceWriter",
		"NewTracer", "NewWorkloadProfiler", "RangeInfo", "ReasonDegradedCoverage", "Record",
		"ReplayJournalTail", "RouterID", "Server", "SimFaultSpec", "SimFaultWindow", "SimGenConfig",
		"SimScenario", "SimSpec", "SimV5Packer", "SketchStatus", "StatTimeConfig",
		"TelemetryRegistry", "TimelineCollector", "TimelineOptions", "TraceReader",
		"TraceWriter", "Tracer", "TracerOptions", "WorkloadOptions", "WorkloadProfiler",
		"WorkloadSnapshot", "WriteOutputSnapshot",
	}
	f, err := parser.ParseFile(token.NewFileSet(), "ipd.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						got = append(got, sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("facade exports changed:\n got %v\nwant %v", got, want)
	}
}
