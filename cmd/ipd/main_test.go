package main

import (
	"flag"
	"slices"
	"testing"
)

// TestFlagSurface pins every flag name and default of ipd: operators'
// scripts and unit files depend on them, and the shared half comes from
// internal/node, where an edit would silently change both binaries.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("ipd", flag.ContinueOnError)
	newOptions(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	want := []string{
		"bin=5m0s",
		"bytes=false",
		"checkpoint-dir=",
		"checkpoint-every=10",
		"cidrmax4=28",
		"cidrmax6=48",
		"debug-http=",
		"e=2m0s",
		"edges=",
		"explain=",
		"exporter-stale-after=3m0s",
		"factor4=0.01",
		"factor6=1e-08",
		"floor=4",
		"format=binary",
		"governor=false",
		"heartbeat=2s",
		"in=-",
		"journal=",
		"journal-cap=4096",
		"listen-delta=",
		"log-level=warn",
		"max-ranges=0",
		"mem-budget=0",
		"merge-stall=0s",
		"mutexprofile=0",
		"q=0.95",
		"replay=",
		"resync=false",
		"sketch=false",
		"sketch-depth=4",
		"sketch-exact-margin=0.05",
		"sketch-width=1024",
		"skew-max=5m0s",
		"summary=false",
		"t=1m0s",
		"timeline-every=1",
		"timeline-window=512",
		"trace-cap=8192",
		"trace-out=",
		"trace-sample=1024",
		"workload-topk=32",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}
