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
		"explain=",
		"factor4=0.01",
		"factor6=1e-08",
		"floor=4",
		"format=binary",
		"governor=false",
		"in=-",
		"journal=",
		"log-level=warn",
		"max-ranges=0",
		"mem-budget=0",
		"mutexprofile=0",
		"q=0.95",
		"replay=",
		"resync=false",
		"sketch=false",
		"summary=false",
		"t=1m0s",
		"timeline-window=512",
		"trace-out=",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}
