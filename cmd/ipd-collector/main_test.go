package main

import (
	"flag"
	"slices"
	"testing"
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
		"edge-id=",
		"exporter-stale-after=3m0s",
		"exporters=",
		"factor4=0.01",
		"floor=4",
		"governor=false",
		"heartbeat=2s",
		"http=:8080",
		"ipfix=",
		"journal=",
		"journal-cap=4096",
		"listen=:2055",
		"log-level=warn",
		"max-ranges=0",
		"mem-budget=0",
		"mutexprofile=0",
		"q=0.95",
		"queue=16384",
		"sample=1",
		"sample-boost=8",
		"ship-to=",
		"sketch=false",
		"sketch-depth=4",
		"sketch-exact-margin=0.05",
		"sketch-width=1024",
		"skew-max=5m0s",
		"spool-cap=65536",
		"timeline-every=1",
		"timeline-window=512",
		"trace-cap=8192",
		"trace-sample=1024",
		"trust=false",
		"workload-topk=32",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}
