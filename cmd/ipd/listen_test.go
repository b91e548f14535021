package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipd"
	"ipd/internal/core"
	"ipd/internal/flow"
	"ipd/internal/persist"
)

// TestTrustAfterLoadedExporters pins -trust next to -exporters: an unknown
// exporter gets the id after the highest loaded one, never an id a loaded
// router already holds (their votes would merge into one ingress).
func TestTrustAfterLoadedExporters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exporters.csv")
	if err := os.WriteFile(path, []byte("192.0.2.1,1\n# lab edge\n192.0.2.7,7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := flow.NewExporters()
	n, last, err := loadExporters(reg, path)
	if err != nil || n != 2 || last != 7 {
		t.Fatalf("loadExporters = %d, %d, %v; want 2 exporters up to id 7", n, last, err)
	}
	enableTrust(reg, last+1)
	for src, want := range map[string]ipd.RouterID{"192.0.2.1:2055": 1, "192.0.2.7:2055": 7, "198.51.100.9:2055": 8} {
		if got, _, ok := reg.Attribute(netip.MustParseAddrPort(src)); !ok || got != want {
			t.Errorf("%s attributed to router %d (ok=%v), want %d", src, got, ok, want)
		}
	}
}

// TestListenDrainsOnCancel runs a listen-mode process in-process: minutes
// of NetFlow v5 from one loopback exporter, then a cancel, which must drain
// the queue into a final checkpoint that the journal replays to.
func TestListenDrainsOnCancel(t *testing.T) {
	dir := t.TempDir()
	ckpt, jpath := filepath.Join(dir, "ckpt"), filepath.Join(dir, "j.jsonl")
	fs := flag.NewFlagSet("ipd", flag.ContinueOnError)
	o := newOptions(fs)
	if err := fs.Parse([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-trust",
		"-factor4", "0.001", "-checkpoint-dir", ckpt, "-journal", jpath}); err != nil {
		t.Fatal(err)
	}
	if err := o.validate(fs); err != nil {
		t.Fatal(err)
	}
	// The kernel picks both ports; listen reports them once bound.
	bound := make(chan [2]string, 1)
	o.bound = func(netflow, http string) { bound <- [2]string{netflow, http} }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- listen(ctx, o) }()
	var udpAddr, httpAddr string
	select {
	case addrs := <-bound:
		udpAddr, httpAddr = addrs[0], addrs[1]
	case err := <-done:
		t.Fatalf("listen returned %v before binding", err)
	case <-time.After(20 * time.Second):
		t.Fatal("listen bound nothing")
	}

	get := func(path string) (string, error) {
		resp, err := http.Get("http://" + httpAddr + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	var collected struct {
		Collector map[string]uint64 `json:"collector"`
	}
	// until polls the status surface until ok holds.
	until := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			body, err := get("/stats")
			if err == nil && json.Unmarshal([]byte(body), &collected) == nil && ok() {
				return
			}
			select {
			case err := <-done:
				t.Fatalf("listen returned %v while waiting for %s", err, what)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (last /stats error %v)", what, err)
			}
		}
	}
	until("the status surface", func() bool { return true })

	conn, err := net.Dial("udp", udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var sendErr error
	packer, err := ipd.NewSimV5Packer(ipd.SimFaultSpec{}, time.Time{}, func(_ ipd.RouterID, payload []byte, _ time.Time) {
		if _, err := conn.Write(payload); err != nil && sendErr == nil {
			sendErr = err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// One exporter, so -trust makes it router 1; each /8 enters on its own
	// interface.
	const minutes, perPrefix = 6, 120
	bases := []string{"20.0.0.0", "130.0.0.0", "210.0.0.0"}
	t0 := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC)
	sent := uint64(0)
	for m := 0; m < minutes; m++ {
		for i, base := range bases {
			a := netip.MustParseAddr(base).As4()
			for j := 0; j < perPrefix; j++ {
				a[3] = byte(j)
				rec := ipd.Record{
					Ts:      t0.Add(time.Duration(m)*time.Minute + time.Duration(j)*time.Second/4),
					Src:     netip.AddrFrom4(a),
					In:      ipd.Ingress{Router: 1, Iface: ipd.IfaceID(i + 1)},
					Bytes:   1000,
					Packets: 1,
				}
				if err := packer.Add(rec); err != nil {
					t.Fatal(err)
				}
				sent++
			}
		}
		if err := packer.Flush(); err != nil {
			t.Fatal(err)
		}
		if sendErr != nil {
			t.Fatal(sendErr)
		}
		// A minute at a time, so the socket's receive buffer never
		// overflows.
		until(fmt.Sprintf("minute %d at the collector", m), func() bool { return collected.Collector["records"] == sent })
	}
	if c := collected.Collector; c["malformed"] != 0 || c["unknown_exporter"] != 0 || c["datagrams"] == 0 {
		t.Fatalf("collector counters %v", c)
	}
	metrics, err := get("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "\nipd_records_shed_total 0\n") {
		t.Fatalf("the queue shed records or exposes no shed counter:\n%s", metrics)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("listen: %v", err)
	}

	// The drain ends in a final checkpoint: a server restored from it holds
	// the partition the journal folds into.
	mgr, err := persist.NewManager(persist.Options{Dir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	live, err := ipd.NewServer(ipd.DefaultConfig(), ipd.DefaultStatTimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Load(live.RestoreCheckpoint); err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	replayed, err := ipd.NewServer(ipd.DefaultConfig(), ipd.DefaultStatTimeConfig())
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if _, err := ipd.ReplayJournalTail(bufio.NewReader(jf), 0, replayed.ApplyEvent); err != nil {
		t.Fatal(err)
	}
	if err := core.DiffPartitions(live.Snapshot(), replayed.Snapshot()); err != nil {
		t.Fatalf("journal replay differs from the final checkpoint: %v", err)
	}
	if live.Seq() != replayed.Seq() {
		t.Fatalf("checkpoint at seq %d, journal at seq %d", live.Seq(), replayed.Seq())
	}
	if n := len(live.Mapped()); n == 0 {
		t.Fatal("nothing mapped")
	}
}
