package main

import (
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ipd"
	"ipd/internal/flow"
)

// TestFlagSurface pins every flag name and default of ipd-collector: operators'
// scripts and unit files depend on them, and the shared half comes from
// internal/node, where an edit would silently change both binaries.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("ipd-collector", flag.ContinueOnError)
	newOptions(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	want := []string{
		"checkpoint-dir=",
		"checkpoint-every=10",
		"exporters=",
		"factor4=0.01",
		"floor=4",
		"governor=false",
		"http=:8080",
		"ipfix=",
		"journal=",
		"listen=:2055",
		"log-level=warn",
		"max-ranges=0",
		"mem-budget=0",
		"mutexprofile=0",
		"q=0.95",
		"queue=16384",
		"sample=1",
		"sample-boost=8",
		"sketch=false",
		"timeline-window=512",
		"trust=false",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}

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
