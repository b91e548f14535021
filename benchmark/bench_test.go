package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/ipfix"
	"ipd/internal/netflow"
)

// toyShape is the smoke-test size: a one-minute block at 2 000 flows a
// minute, three replays per pass, after enough toy minutes for the
// partition to leave its roots.
var toyShape = shape{flowsPerMin: 2000, blockMin: 1, warmBlocks: 24, passBlocks: 3, trials: 1}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts that rep carries exactly the declared metrics.
func checkMetrics(t *testing.T, rep report, defs []metricDef) {
	t.Helper()
	if !rep.Result.Correct {
		t.Fatalf("%s: correctness checks failed: %s", rep.Workload, rep.Error)
	}
	if rep.Result.Failed != 0 || rep.Result.Attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d", rep.Workload, rep.Result.Attempted, rep.Result.Failed)
	}
	if len(rep.Result.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", rep.Workload, len(rep.Result.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Result.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", rep.Workload, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", rep.Workload, d.Name, v.Unit, d.Unit)
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q does not match %v", d.Name, metricName)
		}
	}
}

// TestSmokeEveryWorkload runs every workload at toy size, threaded and
// traced, and requires the correctness checks to pass and every declared
// metric to be emitted exactly once (metricSet panics on a second set).
func TestSmokeEveryWorkload(t *testing.T) {
	traceDir = t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sh := toyShape
			if w.cold {
				// Three toy minutes never reach a first classification; give
				// the cold pass what the others get as warm-up.
				sh.passBlocks = sh.warmBlocks
			}
			rep := run(w, sh, 1, false)
			checkMetrics(t, rep, endToEnd)
			for _, d := range endToEnd {
				if rep.Result.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, rep.Result.Metrics[d.Name].Value)
				}
			}
			traced := run(w, sh, 1, true)
			checkMetrics(t, traced, perLayer)
			if traced.VerdictDigest == "" || rep.VerdictDigest == "" {
				t.Error("verdict digest missing")
			}
		})
	}
}

// TestSequenceContinuity replays a block through pipelines with exporter
// health attached, over both codecs: the time-shifted replays must look like
// one gapless export stream (runEndToEnd fails an observed run that books
// any sequence-gap loss).
func TestSequenceContinuity(t *testing.T) {
	for _, w := range []workload{
		{name: "observed-v5", observed: true},
		{name: "observed-ipfix", observed: true, ipfix: true, ipv6Fraction: 0.3},
	} {
		rep := run(w, toyShape, 3, false)
		if !rep.Result.Correct {
			t.Errorf("%s: %s", w.name, rep.Error)
		}
	}
}

// TestManifestMatchesDeclarations holds BENCHMARK.json and the tables in
// this package together.
func TestManifestMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, package %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, package {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, package %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: manifest %+v, package %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if m.RunSeconds != 5 {
		t.Errorf("run_seconds %d, the -seconds default is 5", m.RunSeconds)
	}
	var names []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Errorf("metric name %s declared twice", names[i])
		}
	}
}

// toyBlock builds a small block of the given codec whose span is ten
// minutes, so one replay shifts time by the 600 s the design documents.
func toyBlock(t *testing.T, w workload) *block {
	t.Helper()
	blk, err := buildBlock(w, shape{flowsPerMin: 300, blockMin: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if blk.span != 600*time.Second {
		t.Fatalf("block span %v", blk.span)
	}
	return blk
}

func TestSetReplayV5(t *testing.T) {
	blk := toyBlock(t, workload{})
	for i := range blk.dgrams {
		d := &blk.dgrams[i]
		orig := bytes.Clone(d.payload)
		before, err := netflow.Decode(d.payload)
		if err != nil {
			t.Fatal(err)
		}
		blk.setReplay(d, 2)
		after, err := netflow.Decode(d.payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.Header.ExportTime().Sub(before.Header.ExportTime()); got != 1200*time.Second {
			t.Fatalf("datagram %d: export time moved by %v over two replays, want 1200s", i, got)
		}
		if got, want := after.Header.FlowSequence-before.Header.FlowSequence, 2*blk.feedRecords[d.feed]; got != want {
			t.Fatalf("datagram %d: sequence advanced by %d, want %d", i, got, want)
		}
		rec0 := netflow.ToFlow(before.Header, before.Records[0], 1)
		rec2 := netflow.ToFlow(after.Header, after.Records[0], 1)
		if rec2.Ts.Sub(rec0.Ts) != 1200*time.Second || rec2.Src != rec0.Src {
			t.Fatalf("datagram %d: record %v became %v", i, rec0, rec2)
		}
		blk.setReplay(d, 0)
		if !bytes.Equal(d.payload, orig) {
			t.Fatalf("datagram %d: replay 0 does not restore the packed bytes", i)
		}
	}
}

func TestSetReplayIPFIX(t *testing.T) {
	blk := toyBlock(t, workload{ipfix: true, ipv6Fraction: 0.3})
	decode := func(d *datagram) (*ipfix.Message, []flow.Record) {
		msg, err := ipfix.DecodeMessage(d.payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(msg.DataSets) != 1 {
			t.Fatalf("%d data sets in a packed message", len(msg.DataSets))
		}
		tmpl := ipfix.DefaultTemplateV4
		if msg.DataSets[0].TemplateID == ipfix.DefaultTemplateV6.ID {
			tmpl = ipfix.DefaultTemplateV6
		}
		recs, skipped, err := ipfix.DecodeRecords(msg, tmpl, msg.DataSets[0], 1)
		if err != nil || skipped != 0 {
			t.Fatalf("decode records: %v, %d skipped", err, skipped)
		}
		return msg, recs
	}
	sawV6 := false
	for i := range blk.dgrams {
		d := &blk.dgrams[i]
		orig := bytes.Clone(d.payload)
		msg0, recs0 := decode(d)
		blk.setReplay(d, 1)
		msg1, recs1 := decode(d)
		if got := msg1.ExportTime.Sub(msg0.ExportTime); got != 600*time.Second {
			t.Fatalf("message %d: export time moved by %v, want 600s", i, got)
		}
		if got, want := msg1.Sequence-msg0.Sequence, blk.feedRecords[d.feed]; got != want {
			t.Fatalf("message %d: sequence advanced by %d, want %d", i, got, want)
		}
		if len(recs0) == 0 || len(recs1) != len(recs0) {
			t.Fatalf("message %d: %d records became %d", i, len(recs0), len(recs1))
		}
		for j := range recs0 {
			if recs1[j].Ts.Sub(recs0[j].Ts) != 600*time.Second || recs1[j].Src != recs0[j].Src {
				t.Fatalf("message %d record %d: %v became %v", i, j, recs0[j], recs1[j])
			}
			sawV6 = sawV6 || recs0[j].Src.Is6()
		}
		blk.setReplay(d, 0)
		if !bytes.Equal(d.payload, orig) {
			t.Fatalf("message %d: replay 0 does not restore the packed bytes", i)
		}
	}
	if !sawV6 {
		t.Error("the dual-stack block carries no IPv6 record")
	}
}

func TestCheckTilingRejectsGapsAndOverlaps(t *testing.T) {
	blk := toyBlock(t, workload{})
	s, err := newStages(workload{}, shape{flowsPerMin: 300, blockMin: 10}, blk)
	if err != nil {
		t.Fatal(err)
	}
	s.runBlock(0)
	snap := s.eng.Snapshot()
	if err := checkTiling(snap); err != nil {
		t.Fatalf("engine partition rejected: %v", err)
	}
	if len(snap) < 3 {
		t.Fatalf("only %d ranges after one block", len(snap))
	}
	if err := checkTiling(snap[1:]); err == nil {
		t.Error("partition missing its first range accepted")
	}
	if err := checkTiling(append(snap[:1:1], snap...)); err == nil {
		t.Error("partition with a duplicated range accepted")
	}
}
