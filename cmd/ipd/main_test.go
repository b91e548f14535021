package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ipd"
	"ipd/internal/experiments"
	"ipd/internal/node"
	"ipd/internal/persist"
)

// TestFlagSurface pins every flag name and default of ipd: operators'
// scripts and unit files depend on them, and the process flags come from
// internal/node, where an edit would silently change them.
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
		"e=2m0s",
		"explain=",
		"exporters=",
		"factor4=0.01",
		"factor6=1e-08",
		"floor=4",
		"format=binary",
		"governor=false",
		"http=",
		"in=-",
		"ipfix=",
		"journal=",
		"listen=",
		"log-level=warn",
		"max-ranges=0",
		"mem-budget=0",
		"mutexprofile=0",
		"q=0.95",
		"queue=16384",
		"replay=",
		"resync=false",
		"sample=1",
		"sample-boost=8",
		"sketch=false",
		"summary=false",
		"t=1m0s",
		"timeline-window=512",
		"trace-out=",
		"trust=false",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}

// TestListenFlagSurface pins what a collector unit file passes with
// -listen: every flag the collector took before it became ipd's listen
// mode still exists, keeps its default except -listen (was :2055) and
// -http (was :8080), is not trace-only, and all of them together validate.
func TestListenFlagSurface(t *testing.T) {
	collector := []string{
		"checkpoint-dir=",
		"checkpoint-every=10",
		"exporters=",
		"factor4=0.01",
		"floor=4",
		"governor=false",
		"http=",
		"ipfix=",
		"journal=",
		"listen=",
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
	fs := flag.NewFlagSet("ipd", flag.ContinueOnError)
	o := newOptions(fs)
	args := []string{"-listen", "127.0.0.1:0"}
	for _, nv := range collector {
		name, def, _ := strings.Cut(nv, "=")
		f := fs.Lookup(name)
		switch {
		case f == nil:
			t.Errorf("-%s is gone", name)
			continue
		case f.DefValue != def:
			t.Errorf("-%s default %q, want %q", name, f.DefValue, def)
		case slices.Contains(traceFlags, name):
			t.Errorf("-%s is trace-only", name)
		}
		if name != "listen" {
			args = append(args, "-"+name+"="+def)
		}
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := o.validate(fs); err != nil {
		t.Fatalf("collector flags at their defaults rejected: %v", err)
	}
}

// TestModeConfigs pins the engine and process settings each input mode runs
// at its defaults, field by field, against what the two binaries ran before
// the collector became a mode of ipd: the collector took core.DefaultConfig
// plus the node flags, so a listen run maps IPv6 at the deployment factor
// 24; the trace run also set -factor6 1e-8 and the cidr_max, t, e and bytes
// flags, all at core.DefaultConfig's values. An engine parameter that moves
// in either mode fails here by name.
func TestModeConfigs(t *testing.T) {
	collector := ipd.DefaultConfig()
	collectorNode := node.RegisterFlags(flag.NewFlagSet("collector", flag.ContinueOnError), &collector)
	trace := collector
	trace.NCidrFactor6 = 1e-8
	for _, tc := range []struct {
		name string
		args []string
		want ipd.Config
	}{
		{"trace", nil, trace},
		{"listen", []string{"-listen", "127.0.0.1:0"}, collector},
		{"listen-factor6", []string{"-listen", "127.0.0.1:0", "-factor6", "1e-8"}, trace},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("ipd", flag.ContinueOnError)
			o := newOptions(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			if err := o.validate(fs); err != nil {
				t.Fatal(err)
			}
			for _, d := range fieldDiffs(o.cfg, tc.want) {
				t.Errorf("core.Config.%s", d)
			}
			for _, d := range fieldDiffs(*o.node, *collectorNode) {
				t.Errorf("node.Flags.%s", d)
			}
		})
	}
}

// fieldDiffs names the exported fields of two structs of one type whose
// values differ (function fields compare by nil-ness).
func fieldDiffs(got, want any) []string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	var diffs []string
	for i := 0; i < g.NumField(); i++ {
		f := g.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		gv, wv := g.Field(i), w.Field(i)
		if f.Type.Kind() == reflect.Func {
			if gv.IsNil() != wv.IsNil() {
				diffs = append(diffs, f.Name+" set on one side only")
			}
			continue
		}
		if !reflect.DeepEqual(gv.Interface(), wv.Interface()) {
			diffs = append(diffs, fmt.Sprintf("%s = %v, want %v", f.Name, gv.Interface(), wv.Interface()))
		}
	}
	return diffs
}

// TestValidate pins the usage errors (exit 2) of the flags that belong to
// one input mode: each is rejected in the other mode and next to -replay by
// name, and the ingest pipeline flags reject a dead pipeline.
func TestValidate(t *testing.T) {
	const listen = "127.0.0.1:0"
	cases := []struct {
		name string
		args []string
		want string // "" = accepted; else the error
	}{
		{"trace-defaults", nil, ""},
		{"listen-defaults", []string{"-listen", listen}, ""},
		{"queue", []string{"-listen", listen, "-queue", "0"}, "-queue must be >= 1 (got 0)"},
		{"sample", []string{"-listen", listen, "-sample", "0"}, "-sample must be >= 1 (got 0)"},
		{"sample-boost", []string{"-listen", listen, "-sample-boost", "0"}, "-sample-boost must be >= 1 (got 0)"},
		{"ingest-first-error-wins", []string{"-listen", listen, "-queue", "0", "-sample", "0", "-sample-boost", "0"}, "-queue must be >= 1 (got 0)"},
		// A process flag is checked before the ingest flags.
		{"node-before-ingest", []string{"-listen", listen, "-queue", "0", "-checkpoint-every", "0"}, "-checkpoint-every must be >= 1 (got 0)"},
		// A flag of the other mode is checked before anything else.
		{"mode-first", []string{"-listen", listen, "-in", "x", "-checkpoint-every", "0"}, "-in reads a trace; it does not apply with -listen"},
		{"replay-defaults", []string{"-replay", "j.jsonl"}, ""},
		{"replay-listen", []string{"-replay", "j.jsonl", "-listen", listen}, "-listen does not apply with -replay (it reads no input)"},
	}
	// A flag of the other mode is rejected even when set to its default.
	defaults := flag.NewFlagSet("defaults", flag.ContinueOnError)
	newOptions(defaults)
	set := func(name string) string { return "-" + name + "=" + defaults.Lookup(name).DefValue }
	for _, name := range traceFlags {
		cases = append(cases, struct {
			name string
			args []string
			want string
		}{"listen-" + name, []string{"-listen", listen, set(name)}, "-" + name + " reads a trace; it does not apply with -listen"})
	}
	for _, name := range listenFlags {
		cases = append(cases, struct {
			name string
			args []string
			want string
		}{"trace-" + name, []string{set(name)}, "-" + name + " applies only with -listen"})
	}
	for _, name := range append(slices.Clone(traceFlags), listenFlags...) {
		cases = append(cases, struct {
			name string
			args []string
			want string
		}{"replay-" + name, []string{"-replay", "j.jsonl", set(name)}, "-" + name + " does not apply with -replay (it reads no input)"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("ipd", flag.ContinueOnError)
			o := newOptions(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := o.validate(fs)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || err.Error() != tc.want):
				t.Fatalf("error %v, want %q", err, tc.want)
			}
		})
	}
}

// simTrace generates the flowgen scenario's records for minutes [from, to)
// after its start: timestamps are random within each minute, so the trace
// is disordered inside every minute and ordered across minutes.
func simTrace(t *testing.T, from, to int) []ipd.Record {
	t.Helper()
	scn, err := ipd.NewSimScenario(ipd.DefaultSimSpec())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ipd.SimGenConfig{FlowsPerMinute: 3000, NoiseFraction: 0.002, Seed: 1, Diurnal: true}
	var recs []ipd.Record
	start := scn.Start.Add(time.Duration(from) * time.Minute)
	end := scn.Start.Add(time.Duration(to) * time.Minute)
	if err := scn.Stream(start, end, cfg, func(rec ipd.Record) bool {
		recs = append(recs, rec)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// writeTraceFile writes recs as a binary trace file in dir.
func writeTraceFile(t *testing.T, dir string, recs []ipd.Record) string {
	t.Helper()
	path := filepath.Join(dir, "t.ipd")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := ipd.NewTraceWriter(f)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runIPD runs the binary's run with args and returns what it wrote to
// stdout and stderr, and its error.
func runIPD(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	fs := flag.NewFlagSet("ipd", flag.ContinueOnError)
	o := newOptions(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var files [2]*os.File
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	saved := [2]*os.File{os.Stdout, os.Stderr}
	os.Stdout, os.Stderr = files[0], files[1]
	runErr := run(o)
	os.Stdout, os.Stderr = saved[0], saved[1]
	var out [2]string
	for i, f := range files {
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(data)
	}
	return out[0], out[1], runErr
}

// directServer builds the node and server of a command line through
// start, as run does, for a test to feed directly.
func directServer(t *testing.T, args ...string) (*node.Node, *ipd.Server) {
	t.Helper()
	fs := flag.NewFlagSet("direct", flag.ContinueOnError)
	o := newOptions(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	n, srv, err := start(o, node.GovernorInputs{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n, srv
}

// feedDirect hands recs to srv and ends the run. Exporter health is
// accounted in front of the server, as the UDP collectors account it; its
// staleness verdicts annotate journaled classifications, so it runs one
// 512-record batch ahead of the server, as in run.
func feedDirect(n *node.Node, srv *ipd.Server, recs []ipd.Record) {
	for i := 0; i < len(recs); i += 512 {
		batch := recs[i:min(i+512, len(recs))]
		for _, rec := range batch {
			n.Health.ObserveRecord(rec.In.Router)
		}
		srv.Ingest(batch)
	}
	srv.Finish()
}

// TestOneRecordPath pins that the trace binary is the collector's record
// path: a trace run writes the journal and the final checkpoint that a
// core.Server built from the same Config and fed the same records writes.
func TestOneRecordPath(t *testing.T) {
	dir := t.TempDir()
	recs := simTrace(t, 0, 20)
	args := []string{"-factor4", "0.001", "-summary"}
	jpath, ckpt := filepath.Join(dir, "ipd.jsonl"), filepath.Join(dir, "ckpt")
	_, stderr, err := runIPD(t, append(args, "-in", writeTraceFile(t, dir, recs), "-journal", jpath, "-checkpoint-dir", ckpt)...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stderr, "ipd: stattime accepted "+strconv.Itoa(len(recs))+", dropped 0 stale, 0 future, 0 inactive\n") {
		t.Errorf("stderr does not report every record accepted:\n%s", stderr)
	}

	direct := filepath.Join(dir, "direct.jsonl")
	n, srv := directServer(t, append(args, "-journal", direct)...)
	feedDirect(n, srv, recs)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if len(srv.Mapped()) == 0 {
		t.Fatal("nothing classified: the comparison below would be vacuous")
	}

	got, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		t.Fatalf("journals differ from line %d (ipd %d lines, server %d)", i+1, len(gl)-1, len(wl)-1)
	}

	mgr, err := persist.NewManager(persist.Options{Dir: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	var final []byte
	if _, err := mgr.Load(func(data []byte) error { final = data; return nil }); err != nil {
		t.Fatal(err)
	}
	if state, _ := srv.EncodeCheckpoint(); !bytes.Equal(final, state) {
		t.Fatalf("final checkpoint is %d bytes, the server's state %d bytes, and they differ", len(final), len(state))
	}
}

// TestRowsAtBinBoundaries pins the Appendix-B row contract across a silent
// gap: one row set per -bin boundary B, equal to Mapped() after the last
// stage-2 cycle at or before B, then one final set after the last cycle.
func TestRowsAtBinBoundaries(t *testing.T) {
	const bin = 2 * time.Minute
	// Minutes 10 to 12 are silent, so the boundaries at 10 and 12 fall in
	// the gap. The jump across it stays under stattime's 5-minute MaxSkew.
	recs := append(simTrace(t, 0, 10), simTrace(t, 13, 16)...)
	args := []string{"-factor4", "0.001", "-bin", bin.String()}
	stdout, _, err := runIPD(t, append(args, "-in", writeTraceFile(t, t.TempDir(), recs))...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	n, srv := directServer(t, args...)
	type cycle struct {
		at     time.Time
		before []ipd.RangeInfo // Mapped() as the cycle starts
	}
	var cycles []cycle
	srv.SetCycleHook(func(at time.Time, mapped func() []ipd.RangeInfo) {
		if st, _ := srv.Stats(); st.Cycles != uint64(len(cycles)) {
			t.Errorf("hook at %v ran after %d cycles, want before cycle %d", at, st.Cycles, len(cycles)+1)
		}
		cycles = append(cycles, cycle{at, mapped()})
	})
	feedDirect(n, srv, recs)
	if _, st := srv.Stats(); st.Accepted != uint64(len(recs)) {
		t.Fatalf("stattime accepted %d of %d records", st.Accepted, len(recs))
	}
	final := srv.Mapped()
	// after(k) is Mapped() after cycle k: what cycle k+1 starts from.
	after := func(k int) []ipd.RangeInfo {
		if k+1 < len(cycles) {
			return cycles[k+1].before
		}
		return final
	}

	var want bytes.Buffer
	first, last := cycles[0].at, cycles[len(cycles)-1].at
	gapFrom, gapTo := recs[0].Ts.Truncate(time.Minute).Add(10*time.Minute), recs[0].Ts.Truncate(time.Minute).Add(13*time.Minute)
	var inGap [][]ipd.RangeInfo
	for b := first.Truncate(bin); b.Before(last); b = b.Add(bin) {
		if b.Before(first) {
			continue
		}
		k := len(cycles) - 1
		for cycles[k].at.After(b) {
			k--
		}
		if err := ipd.WriteOutputSnapshot(&want, b, after(k), nil); err != nil {
			t.Fatal(err)
		}
		if !b.Before(gapFrom) && b.Before(gapTo) {
			inGap = append(inGap, after(k))
		}
	}
	if err := ipd.WriteOutputSnapshot(&want, last, final, nil); err != nil {
		t.Fatal(err)
	}
	// The cycles inside the gap run in one Ingest call; the two boundaries
	// there must still see different states, or the check below is blind
	// to a row set taken after the wrong cycle.
	if len(inGap) != 2 || len(inGap[0]) == len(inGap[1]) {
		t.Fatalf("%d boundaries in the gap, want 2 with different mapped counts", len(inGap))
	}
	if stdout != want.String() {
		t.Fatalf("rows differ from Mapped() at each boundary:\n got %d bytes\nwant %d bytes", len(stdout), want.Len())
	}
}

// TestGapBeyondMaxSkew pins that a trace whose feeds all fall silent for
// longer than stattime's 5-minute MaxSkew loses no records silently: the
// binner drops everything after the gap as future, so without -resync the
// run fails, and with it the stattime line counts every dropped record.
func TestGapBeyondMaxSkew(t *testing.T) {
	before, after := simTrace(t, 0, 10), simTrace(t, 20, 24)
	in := writeTraceFile(t, t.TempDir(), append(before, after...))
	_, _, err := runIPD(t, "-factor4", "0.001", "-summary", "-in", in)
	if err == nil || !strings.Contains(err.Error(), "-resync") {
		t.Fatalf("run over a 10-minute gap = %v, want an error naming -resync", err)
	}
	_, stderr, err := runIPD(t, "-factor4", "0.001", "-summary", "-resync", "-in", in)
	if err != nil {
		t.Fatalf("run -resync: %v", err)
	}
	want := fmt.Sprintf("ipd: stattime accepted %d, dropped 0 stale, %d future, 0 inactive\n", len(before), len(after))
	if !strings.HasSuffix(stderr, want) {
		t.Fatalf("stderr does not count the records after the gap:\n%s\nwant suffix %q", stderr, want)
	}
}

// TestFiguresRunTheBinaryPath pins that the paper's figures and the trace
// binary run one record path: experiments.RunBins, given the Config the ipd
// flags parse into, hands the figures at every -bin boundary the
// ranges ipd prints there, and ends at the ranges ipd ends at; and the
// Figs 13/14 driver, on its own server, journals the lifecycle events ipd
// journals for the same stream.
func TestFiguresRunTheBinaryPath(t *testing.T) {
	recs := simTrace(t, 0, 30)
	args := []string{"-factor4", "0.001", "-bin", "5m"}
	stdout, _, err := runIPD(t, append(args, "-in", writeTraceFile(t, t.TempDir(), recs))...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	o := newOptions(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	// The final cycle runs at statistical time, the newest record; ipd
	// stamps the final set with it, and every boundary before it has rows.
	last := slices.MaxFunc(recs, func(a, b ipd.Record) int { return a.Ts.Compare(b.Ts) }).Ts
	var want bytes.Buffer
	var rows int
	var final []ipd.RangeInfo
	_, err = experiments.RunBins(o.cfg, o.bin,
		func(yield func(ipd.Record) bool) error {
			for _, rec := range recs {
				if !yield(rec) {
					break
				}
			}
			return nil
		},
		func(b time.Time, _ []ipd.Record, mapped []ipd.RangeInfo) {
			if b.Before(last) {
				rows++
				if err := ipd.WriteOutputSnapshot(&want, b, mapped, nil); err != nil {
					t.Fatal(err)
				}
			}
			final = mapped
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := ipd.WriteOutputSnapshot(&want, last, final, nil); err != nil {
		t.Fatal(err)
	}
	if rows != 5 || len(final) == 0 {
		t.Fatalf("%d boundaries before the final cycle and %d final ranges, want 5 and some: the comparison would be vacuous", rows, len(final))
	}
	if stdout != want.String() {
		gl, wl := strings.Split(stdout, "\n"), strings.Split(want.String(), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		t.Fatalf("ipd's rows and the figures' bins differ from line %d (ipd %d lines, figures %d)", i+1, len(gl)-1, len(wl)-1)
	}

	// Figs 13/14 feed their own server: written as a trace, their stream
	// must take ipd through the same lifecycle, event for event. Alerts are
	// left out: ipd attaches a timeline, the figure does not.
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "fig13.ipd"))
	if err != nil {
		t.Fatal(err)
	}
	w := ipd.NewTraceWriter(f)
	experiments.ReactionToChangeStream(func(minute []ipd.Record) bool {
		for _, rec := range minute {
			if err = w.Write(rec); err != nil {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	args = []string{"-factor4", "0.001"}
	journal := filepath.Join(dir, "j.jsonl")
	if _, _, err := runIPD(t, append(args, "-journal", journal, "-in", f.Name())...); err != nil {
		t.Fatalf("run: %v", err)
	}
	lifecycle := func(ev ipd.Event) bool { return ev.Kind != ipd.EventAlertRaised && ev.Kind != ipd.EventAlertCleared }
	var got []experiments.Fig13Event
	jf, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	if _, err := ipd.ReplayJournalTail(jf, 0, func(ev ipd.Event) error {
		if lifecycle(ev) {
			got = append(got, experiments.Fig13Event{At: ev.At, Kind: ev.Kind.String(), Prefix: ev.Prefix, Ingress: ev.Ingress})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	fs = flag.NewFlagSet("fig13", flag.ContinueOnError)
	o = newOptions(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	res, err := experiments.ReactionToChange(o.cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ChangeDetected || len(res.Events) < 10 {
		t.Fatalf("the figure saw %d events, change detected %v: the comparison would be vacuous", len(res.Events), res.ChangeDetected)
	}
	if len(got) != len(res.Events) {
		t.Fatalf("ipd journaled %d lifecycle events, the figure %d", len(got), len(res.Events))
	}
	for i, ev := range res.Events {
		if g := got[i]; !g.At.Equal(ev.At) || g.Kind != ev.Kind || g.Prefix != ev.Prefix || g.Ingress != ev.Ingress {
			t.Fatalf("lifecycle event %d: ipd %+v, figure %+v", i, g, ev)
		}
	}
}
