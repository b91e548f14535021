// netflow-live is the full deployment pipeline of §5.7 in miniature, run
// live over the loopback interface: three simulated border routers export
// NetFlow v5 over UDP, a collector attributes the datagrams, the IPD server
// classifies the address space, and the program prints the mapped ranges —
// all in a couple of seconds of wall time.
//
//	go run ./examples/netflow-live
package main

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"time"

	"ipd"
	"ipd/internal/netflow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	// IPD server (statistical-time cleaning + two-stage engine) draining the
	// bounded ingest queue the collector feeds.
	cfg := ipd.DefaultConfig()
	cfg.NCidrFactor4 = 0.001
	queue := ipd.NewIngestQueue(1 << 12)
	srv, err := ipd.NewServer(cfg, ipd.DefaultStatTimeConfig())
	if err != nil {
		return err
	}

	// Collector on an ephemeral loopback port.
	coll, err := netflow.NewCollector(queue.Offer)
	if err != nil {
		return err
	}
	addrPort, err := coll.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Printf("collector listening on udp://%s\n", addrPort)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	collDone := make(chan error, 1)
	srvDone := make(chan error, 1)
	go func() { collDone <- coll.Serve(ctx) }()
	go func() { srvDone <- srv.RunQueue(context.Background(), queue) }()

	// Three "border routers", each owning a /8 of client space and
	// exporting from its own UDP socket.
	routers := []struct {
		id   ipd.RouterID
		base string
	}{
		{1, "20.0.0.0"},
		{2, "130.0.0.0"},
		{3, "210.0.0.0"},
	}
	conns := make(map[ipd.RouterID]*net.UDPConn)
	for _, r := range routers {
		conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(addrPort))
		if err != nil {
			return err
		}
		defer conn.Close()
		// All three lab exporters share 127.0.0.1 as a source address, so
		// register them at (addr, port) granularity — production routers
		// have distinct addresses and would use RegisterExporter.
		coll.RegisterExporterPort(conn.LocalAddr().(*net.UDPAddr).AddrPort(), r.id)
		conns[r.id] = conn
	}
	// The fault-free packer builds each router's v5 datagrams with its own
	// flow sequence; every full datagram goes out on that router's socket.
	var sendErr error
	packer, err := ipd.NewSimV5Packer(ipd.SimFaultSpec{}, time.Time{}, func(r ipd.RouterID, payload []byte, _ time.Time) {
		if _, err := conns[r].Write(payload); err != nil && sendErr == nil {
			sendErr = err
		}
	})
	if err != nil {
		return err
	}
	fmt.Println("exporting 5 virtual minutes of flows from 3 routers ...")

	ts := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)
	for minute := 0; minute < 5; minute++ {
		for i, r := range routers {
			base := netip.MustParseAddr(r.base).As4()
			for j := 0; j < 120; j++ {
				base[3] = byte(j)
				rec := ipd.Record{
					Ts:      ts.Add(time.Duration(minute) * time.Minute),
					Src:     netip.AddrFrom4(base),
					In:      ipd.Ingress{Router: r.id, Iface: ipd.IfaceID(i + 1)},
					Bytes:   1000,
					Packets: 1,
				}
				if err := packer.Add(rec); err != nil {
					return err
				}
			}
			if err := packer.Flush(); err != nil {
				return err
			}
		}
	}
	if sendErr != nil {
		return sendErr
	}

	// Let the datagrams drain, then close the pipeline.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if coll.Stats().Records.Load() >= 5*3*120 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	<-collDone
	queue.Close()
	if err := <-srvDone; err != nil {
		return err
	}
	if shed := queue.Shed(); shed > 0 {
		return fmt.Errorf("ingest queue shed %d records", shed)
	}

	st := coll.Stats()
	fmt.Printf("collector: %d datagrams, %d records (%d malformed, %d unknown)\n",
		st.Datagrams.Load(), st.Records.Load(), st.Malformed.Load(), st.UnknownExporter.Load())

	fmt.Println("\nmapped ranges:")
	mapped := srv.Mapped()
	for _, ri := range mapped {
		fmt.Printf("  %-14v -> %-6v confidence=%.2f samples=%.0f\n",
			ri.Prefix, ri.Ingress, ri.Confidence, ri.Samples)
	}
	if len(mapped) == 0 {
		return fmt.Errorf("pipeline produced no mapped ranges")
	}
	fmt.Println("\nOK: NetFlow v5 datagrams -> UDP collector -> statistical time -> IPD ranges")
	return nil
}
