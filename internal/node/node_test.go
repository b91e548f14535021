package node

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ipd/internal/core"
	"ipd/internal/flow"
	"ipd/internal/journal"
	"ipd/internal/persist"
	"ipd/internal/stattime"
)

// parseFlags registers the shared flags on a fresh set and parses args.
func parseFlags(t *testing.T, args ...string) (*Flags, core.Config) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := core.DefaultConfig()
	f := RegisterFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, cfg
}

// newNode builds a validated node from command-line style args.
func newNode(t *testing.T, args ...string) *Node {
	t.Helper()
	f, cfg := parseFlags(t, args...)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	n, err := New(f, cfg, GovernorInputs{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// attachServer builds the server from n.Config and attaches it.
func attachServer(t *testing.T, n *Node, traced bool) *core.Server {
	t.Helper()
	srv, err := core.NewServer(n.Config, stattime.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Attach(srv, traced); err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestValidate(t *testing.T) {
	// retired is the parse error of a flag ipd no longer defines:
	// its setting runs at the package default, and a script still passing
	// it fails loudly instead of being ignored.
	retired := func(name string) string { return "flag provided but not defined: -" + name }
	cases := []struct {
		name string
		args []string
		want string // "" = accepted; else a substring of the error
	}{
		{"defaults", nil, ""},
		{"non-defaults", []string{"-checkpoint-every", "1", "-max-ranges", "2",
			"-mem-budget", "1073741824", "-timeline-window", "0", "-mutexprofile", "100"}, ""},
		{"log-level", []string{"-log-level", "loud"}, "-log-level"},
		{"ckpt-every", []string{"-checkpoint-every", "0"}, "-checkpoint-every must be >= 1 (got 0)"},
		{"trace-sample", []string{"-trace-sample", "0"}, retired("trace-sample")},
		{"max-ranges-neg", []string{"-max-ranges", "-1"}, "-max-ranges must be >= 0 (got -1)"},
		{"max-ranges-one", []string{"-max-ranges", "1"}, "-max-ranges 1 cannot hold the two /0 roots (use 0 for unlimited or >= 2)"},
		{"mem-budget", []string{"-mem-budget", "-1"}, "-mem-budget must be >= 0 (got -1)"},
		{"timeline-window", []string{"-timeline-window", "-1"}, "-timeline-window must be >= 0 (got -1)"},
		{"timeline-every", []string{"-timeline-every", "0"}, retired("timeline-every")},
		{"mutexprofile", []string{"-mutexprofile", "-1"}, "-mutexprofile must be >= 0 (got -1)"},
		// Everything is wrong: the first rule in declaration order wins.
		{"first-error-wins", []string{"-checkpoint-every", "0", "-max-ranges", "1",
			"-mem-budget", "-1", "-timeline-window", "-1", "-mutexprofile", "-1"}, "-checkpoint-every must be >= 1 (got 0)"},
		{"stale-after-zero", []string{"-exporter-stale-after", "0s"}, retired("exporter-stale-after")},
		{"skew-max-neg", []string{"-skew-max", "-1s"}, retired("skew-max")},
		{"workload-topk", []string{"-workload-topk", "1"}, retired("workload-topk")},
		// With the sketch tier off, q is not its business.
		{"sketch-off-nonsense", []string{"-q", "0.05"}, ""},
		{"sketch-on", []string{"-sketch"}, ""},
		// With it on, q must exceed the fixed 0.05 exact margin.
		{"sketch-zero-margin", []string{"-sketch", "-q", "0.05"}, "-q must exceed the sketch tier's exact margin 0.05 with -sketch (got 0.05)"},
		{"sketch-margin-neg", []string{"-sketch", "-q", "0.01"}, "-q must exceed the sketch tier's exact margin 0.05 with -sketch (got 0.01)"},
		{"sketch-above-margin", []string{"-sketch", "-q", "0.06"}, ""},
		{"sketch-width-15", []string{"-sketch", "-sketch-width", "15"}, retired("sketch-width")},
		{"sketch-width-big", []string{"-sketch", "-sketch-width", "1048577"}, retired("sketch-width")},
		{"sketch-depth-0", []string{"-sketch", "-sketch-depth", "0"}, retired("sketch-depth")},
		{"sketch-depth-17", []string{"-sketch", "-sketch-depth", "17"}, retired("sketch-depth")},
		{"sketch-margin-1", []string{"-sketch", "-sketch-exact-margin", "1"}, retired("sketch-exact-margin")},
		{"sketch-margin-1.5", []string{"-sketch", "-sketch-exact-margin", "1.5"}, retired("sketch-exact-margin")},
		{"heartbeat-zero", []string{"-heartbeat", "0s"}, retired("heartbeat")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			cfg := core.DefaultConfig()
			f := RegisterFlags(fs, &cfg)
			err := fs.Parse(tc.args)
			if err == nil {
				err = f.Validate()
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatal("bad value accepted")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestCloseReportsSinkError pins ipd's journal-sink contract:
// an event that did not reach the file makes Close fail, and a healthy sink
// holds one JSON line per recorded event.
func TestCloseReportsSinkError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	n := newNode(t, "-journal", path)
	attachServer(t, n, false) // the engine journals its two /0 roots
	if err := n.Close(); err != nil {
		t.Fatalf("healthy sink: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); uint64(lines) != n.Journal.Recorded() || lines == 0 {
		t.Fatalf("sink holds %d lines, journal recorded %d events", lines, n.Journal.Recorded())
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	n = newNode(t, "-journal", "/dev/full")
	attachServer(t, n, false)
	if err := n.Close(); err == nil || !strings.Contains(err.Error(), "journal sink") {
		t.Fatalf("Close with a full sink = %v, want a journal sink error", err)
	}
}

var quadrants = []struct {
	base string
	in   flow.Ingress
}{
	{"10.0.0.0", flow.Ingress{Router: 1, Iface: 1}},  // 0.0.0.0/2
	{"70.0.0.0", flow.Ingress{Router: 2, Iface: 1}},  // 64.0.0.0/2
	{"140.0.0.0", flow.Ingress{Router: 3, Iface: 1}}, // 128.0.0.0/2
	{"210.0.0.0", flow.Ingress{Router: 4, Iface: 1}}, // 192.0.0.0/2
}

// minute returns minute c of a stream with one ingress per /2 quadrant, 20
// addresses each; from minute shiftAt on, the first quadrant enters through
// the last quadrant's ingress, which invalidates and reclassifies it.
func minute(c, shiftAt int) []flow.Record {
	ts := time.Date(2024, 8, 4, 12, 0, 0, 0, time.UTC).Add(time.Duration(c) * time.Minute)
	var recs []flow.Record
	for qi, q := range quadrants {
		in := q.in
		if qi == 0 && c >= shiftAt {
			in = quadrants[3].in
		}
		a := netip.MustParseAddr(q.base).As4()
		for i := 0; i < 20; i++ {
			a[3] = byte(i)
			recs = append(recs, flow.Record{Ts: ts, Src: netip.AddrFrom4(a), In: in, Bytes: 1200, Packets: 1})
		}
	}
	return recs
}

// feed ingests minutes [from, to) of the minute stream, one batch per
// minute. Stage 2 runs as statistical time crosses each minute, so the
// cycles trail the last minute fed by the binner's open buckets.
func feed(srv *core.Server, from, to, shiftAt int) {
	for c := from; c < to; c++ {
		srv.Ingest(minute(c, shiftAt))
	}
}

// TestRestore is the crash-recovery contract both ipd modes rely on: a
// checkpoint plus the journal events recorded after it reproduce the live
// partition, from a server checkpoint and from a bare engine's alike.
func TestRestore(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "j.jsonl")
	// The live run's one checkpoint is saved by hand below; the cadence is
	// set past the run so that no periodic one supersedes it.
	args := []string{"-checkpoint-dir", filepath.Join(dir, "ckpt"), "-checkpoint-every", "1000",
		"-journal", jpath, "-factor4", "0.0005"}

	live := newNode(t, args...)
	liveSrv := attachServer(t, live, false)
	if err := live.Restore(); err != nil {
		t.Fatalf("cold start: %v", err)
	}
	feed(liveSrv, 0, 6, 8)
	data, ckptSeq := liveSrv.EncodeCheckpoint()
	if err := live.Checkpoints.Save(ckptSeq, data); err != nil {
		t.Fatal(err)
	}
	feed(liveSrv, 6, 14, 8)
	if liveSrv.Seq() == ckptSeq {
		t.Fatal("no events after the checkpoint: the tail replay goes unexercised")
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	t.Run("engine", func(t *testing.T) {
		// A bare Engine.MarshalState checkpoint carries no binner section;
		// the server restores it, and the journal tail, all the same.
		edir := t.TempDir()
		eargs := []string{"-checkpoint-dir", filepath.Join(edir, "ckpt"), "-journal", filepath.Join(edir, "j.jsonl"), "-factor4", "0.0005"}
		en := newNode(t, eargs...)
		eng, err := core.NewEngine(en.Config)
		if err != nil {
			t.Fatal(err)
		}
		ckpts, err := persist.NewManager(persist.Options{Dir: filepath.Join(edir, "ckpt")})
		if err != nil {
			t.Fatal(err)
		}
		var engSeq uint64
		for c := 0; c < 14; c++ {
			if c == 6 {
				engSeq = eng.Seq()
				if err := ckpts.Save(engSeq, eng.MarshalState()); err != nil {
					t.Fatal(err)
				}
			}
			recs := minute(c, 8)
			for _, rec := range recs {
				eng.Observe(rec)
			}
			eng.AdvanceTo(recs[0].Ts.Add(time.Minute))
		}
		if eng.Seq() == engSeq {
			t.Fatal("no events after the engine checkpoint: the tail replay goes unexercised")
		}
		if err := en.Close(); err != nil {
			t.Fatal(err)
		}

		n := newNode(t, eargs...)
		srv := attachServer(t, n, false)
		if err := n.Restore(); err != nil {
			t.Fatal(err)
		}
		if want := eng.Seq() - engSeq; n.Checkpoints.Replayed() != want {
			t.Errorf("replayed %d journal events, want the %d after the checkpoint", n.Checkpoints.Replayed(), want)
		}
		if err := core.DiffPartitions(eng.Snapshot(), srv.Snapshot()); err != nil {
			t.Fatalf("server restored from an engine checkpoint diverged from the engine: %v", err)
		}
	})
	t.Run("server", func(t *testing.T) {
		n := newNode(t, args...)
		srv := attachServer(t, n, false)
		if err := n.Restore(); err != nil {
			t.Fatal(err)
		}
		if n.Checkpoints.Replayed() == 0 {
			t.Error("restore replayed no journal events")
		}
		if err := core.DiffPartitions(liveSrv.Snapshot(), srv.Snapshot()); err != nil {
			t.Fatalf("restored server diverged from the live one: %v", err)
		}
	})
	// A crash in the middle of an event write leaves a partial final line.
	// The next start cuts it off and replays every whole line before it; a
	// malformed line with whole lines after it is still a startup error.
	whole, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	firstLine := whole[:bytes.IndexByte(whole, '\n')+1]
	for _, c := range []struct {
		name, tail string
		restores   bool
	}{
		{"torn-final-line", `{"seq":99,"kind":`, true},
		{"torn-line-then-whole-lines", "{\"seq\":99,\"kind\":\n" + string(firstLine), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			torn := filepath.Join(t.TempDir(), "j.jsonl")
			if err := os.WriteFile(torn, append(slices.Clip(whole), c.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			n := newNode(t, "-checkpoint-dir", filepath.Join(dir, "ckpt"), "-journal", torn, "-factor4", "0.0005")
			fi, err := os.Stat(torn)
			if err != nil {
				t.Fatal(err)
			}
			if c.restores && fi.Size() != int64(len(whole)) {
				t.Fatalf("journal after New is %d bytes, want it cut to %d", fi.Size(), len(whole))
			}
			got := attachServer(t, n, false)
			err = n.Restore()
			if !c.restores {
				if err == nil {
					t.Fatal("restore over a malformed journal line succeeded")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := liveSrv.Seq() - ckptSeq; n.Checkpoints.Replayed() != want {
				t.Errorf("replayed %d journal events, want the %d whole lines after the checkpoint", n.Checkpoints.Replayed(), want)
			}
			if err := core.DiffPartitions(liveSrv.Snapshot(), got.Snapshot()); err != nil {
				t.Fatalf("restored server diverged from the live one: %v", err)
			}
		})
	}
	t.Run("foreign-run-rejected", func(t *testing.T) {
		// A second run's seq 1, 2, ... appended after the first run's
		// events: restore refuses the file instead of skipping the foreign
		// lines as already covered by the checkpoint.
		foreign := filepath.Join(t.TempDir(), "j.jsonl")
		second := whole[:bytes.IndexByte(whole[len(firstLine):], '\n')+len(firstLine)+1]
		if err := os.WriteFile(foreign, append(slices.Clip(whole), second...), 0o644); err != nil {
			t.Fatal(err)
		}
		n := newNode(t, "-checkpoint-dir", filepath.Join(dir, "ckpt"), "-journal", foreign, "-factor4", "0.0005")
		attachServer(t, n, false)
		if err := n.Restore(); err == nil || !strings.Contains(err.Error(), "does not follow") {
			t.Fatalf("restore over two runs in one journal = %v, want a seq-order error", err)
		}
	})
	t.Run("cold-start-rotates-journal", func(t *testing.T) {
		// No checkpoint: the journal is a dead run's, and nothing restores
		// on top of it. It moves to the first free <journal>.N, and the new
		// run starts a file of its own that replays from seq 1.
		tmp := t.TempDir()
		cold := filepath.Join(tmp, "j.jsonl")
		if err := os.WriteFile(cold, whole, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cold+".1", []byte("taken\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		n := newNode(t, "-checkpoint-dir", filepath.Join(tmp, "ckpt"), "-journal", cold, "-factor4", "0.0005")
		got := attachServer(t, n, false)
		if err := n.Restore(); err != nil {
			t.Fatal(err)
		}
		feed(got, 0, 3, 8)
		got.Finish()
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		for path, want := range map[string][]byte{cold + ".1": []byte("taken\n"), cold + ".2": whole} {
			if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, want) {
				t.Fatalf("%s holds %d bytes (%v), want %d", path, len(data), err, len(want))
			}
		}
		fresh, err := os.ReadFile(cold)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := core.NewEngine(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := journal.ReplayTail(bytes.NewReader(fresh), 0, replayed.ApplyEvent); err != nil {
			t.Fatalf("new run's journal: %v", err)
		}
		if err := core.DiffPartitions(got.Snapshot(), replayed.Snapshot()); err != nil {
			t.Fatalf("new run's journal replays to another partition: %v", err)
		}
	})
	t.Run("journal-missing", func(t *testing.T) {
		// The checkpoint alone is restored; no journal tail is not an error.
		n := newNode(t, args...)
		got := attachServer(t, n, false)
		if err := os.Remove(jpath); err != nil {
			t.Fatal(err)
		}
		if err := n.Restore(); err != nil {
			t.Fatal(err)
		}
		if got.Seq() != ckptSeq {
			t.Fatalf("seq after restore = %d, want the checkpoint's %d", got.Seq(), ckptSeq)
		}
	})
	t.Run("no-checkpoint", func(t *testing.T) {
		n := newNode(t, "-checkpoint-dir", t.TempDir(), "-journal", filepath.Join(t.TempDir(), "j.jsonl"))
		got := attachServer(t, n, false)
		before := got.Seq()
		if err := n.Restore(); err != nil {
			t.Fatal(err)
		}
		if got.Seq() != before {
			t.Fatalf("cold start moved seq %d -> %d", before, got.Seq())
		}
	})
}

func getJSON(t *testing.T, h http.Handler, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var body map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &body)
	return rec.Code, body
}

// TestHandlerRoutes checks the debug surface under each optional subsystem:
// the /ipd/ index always lists the same routes, the governor and sketch
// endpoints answer exactly when their subsystem runs, and the watchdog
// probes are mounted exactly when tracing runs.
func TestHandlerRoutes(t *testing.T) {
	wantIndex := []string{"/ipd/ranges", "/ipd/range", "/ipd/explain", "/ipd/events", "/ipd/traces",
		"/ipd/governor", "/ipd/timeline", "/ipd/alerts", "/ipd/exporters", "/ipd/workload",
		"/ipd/sketch"}
	for _, gov := range []bool{false, true} {
		for _, sketch := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				var args []string
				if gov {
					args = append(args, "-governor")
				}
				if sketch {
					args = append(args, "-sketch")
				}
				n := newNode(t, args...)
				attachServer(t, n, traced)
				mux := n.Handler()

				code, body := getJSON(t, mux, "/ipd/")
				eps, _ := body["endpoints"].([]any)
				var got []string
				for _, ep := range eps {
					got = append(got, ep.(map[string]any)["path"].(string))
				}
				if code != http.StatusOK || strings.Join(got, " ") != strings.Join(wantIndex, " ") {
					t.Errorf("gov=%v sketch=%v: index = %d %v", gov, sketch, code, got)
				}
				for path, on := range map[string]bool{
					"/ipd/governor": gov, "/ipd/sketch": sketch,
					"/ipd/traces": traced, "/healthz": traced, "/readyz": traced,
					"/ipd/timeline": true, "/ipd/exporters": true, "/ipd/workload": true,
					"/ipd/events": true, "/metrics": true,
				} {
					want := http.StatusNotFound
					if on {
						want = http.StatusOK
					}
					if code, _ := getJSON(t, mux, path); code != want {
						t.Errorf("gov=%v sketch=%v traced=%v: GET %s = %d, want %d",
							gov, sketch, traced, path, code, want)
					}
				}
			}
		}
	}
}
