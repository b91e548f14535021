package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/governor"
	"ipd/internal/trafficgen"
)

// goldenStream is one fixed-seed trafficgen stream and engine configuration
// whose behaviour TestEngineGoldenStreams pins.
type goldenStream struct {
	name string
	gen  func(*trafficgen.GenConfig)
	cfg  func(*testing.T, *Config)
	// scanFrom, when positive, interleaves one spoofed random-/32 record
	// (random ingress) with every generated record from that minute on; the
	// flood starts against a partition that has had time to form.
	scanFrom int
	// check asserts the stream reached the regime it exists to pin.
	check func(*testing.T, *Engine)
	want  goldenDigests
}

// goldenDigests are hex SHA-256 digests recorded on the trie-backed engine
// (the parent of the flat-index rewrite). cuts holds the MarshalState digest
// at 1/4, 1/2 and 3/4 of the stream and at its end.
type goldenDigests struct {
	cuts     [4]string
	snapshot string
	events   string
	nEvents  int
}

const (
	goldenMinutes        = 40
	goldenFlowsPerMinute = 4000
)

var goldenStreams = []goldenStream{
	{
		name: "default-v4",
		gen:  func(g *trafficgen.GenConfig) { g.IPv6Fraction = 0 },
		want: goldenDigests{
			cuts: [4]string{
				"4c16eba8823dacabf57f4cca162e85d1424d6668c164fc14b0eb37533e4473b8",
				"236c5249c62a1501c9b25bebf9f4bbb6ce5e929143d5e22bd7a0a09e9d39585d",
				"a9c6fc3e57e9c251e61a223cd7fceb27257eedaa37ba9f039c1cc8368ac7f2d1",
				"de9ec9b49d4b7778df1902129202dc5817e3295b69f27804f3bcbaaf98b05d08",
			},
			snapshot: "2a0a222a91e0b73588d594486094d0ca4e14b377e299ae4b6bf8702e1848110d",
			events:   "22fc02e8172aff8867dc273e79d42ba4386a6231e5d4ec89974d90064fddb0dc",
			nEvents:  4451,
		},
	},
	{
		name: "dual-stack-30",
		gen:  func(g *trafficgen.GenConfig) { g.IPv6Fraction = 0.3 },
		check: func(t *testing.T, e *Engine) {
			if st := e.Stats(); st.RecordsV6*12 < st.Records {
				t.Errorf("only %d of %d records were IPv6", st.RecordsV6, st.Records)
			}
		},
		want: goldenDigests{
			cuts: [4]string{
				"41c6ab809c711edf144a33086db317d0212b993dbcb46533ab1608289835c5ca",
				"4f1a5352cf4562690b6dea45ff3dcced32b3e00fa437a70203ac19f589f1c313",
				"9a43a8a0be5137bb0c1b0de007b42cd908851c3f71e6d0261c6f7e54885c09e4",
				"0c23055fbc2f81872ec20a09e6a088e0fe11509709ff4d123e79dd6a9b4db990",
			},
			snapshot: "37b7a0b7222293626cdcbf64843aab79e97ea71c16152e2d07a56dc7f32d398a",
			events:   "8f750d98b470f2497dcf24c163d4017f131054956d56e2506f188b99fecbd3a4",
			nEvents:  4310,
		},
	},
	{
		name: "hot-24",
		gen:  func(g *trafficgen.GenConfig) { g.IPv6Fraction = 0; g.HotFraction = 0.45 },
		want: goldenDigests{
			cuts: [4]string{
				"1830e79a32cd53bfabb721bfeef3f1509782e1c7d00c2340470fcd20ff2e7f21",
				"9d9e8830a477d0ece6edeb41d45429ca452cb47e9e663f92bf98d64ae6419319",
				"1a1036fd1398e20c51d6685a5e5dd913822dbfce3ba31f0bbfb7cfe0b33497db",
				"38a4888bbbc7e33fe0fc4df727c36791c6684da443a068cebd3b039009d3be7d",
			},
			snapshot: "cdb407367d3076907a5eff5ab5af8826f65336c99e1ca0239bb2a1fb3b2c17fe",
			events:   "6c6aea4c862d83bc85c7fe4969a938eb1c8d35909dd8db8cb77b173ae8e845c9",
			nEvents:  2852,
		},
	},
	{
		name:     "governed-scan",
		scanFrom: 12,
		cfg: func(t *testing.T, cfg *Config) {
			// Budgets low enough that the flood trips the governor into
			// emergency: the sketch sweep and then compaction both run.
			cfg.MaxRanges = 400
			cfg.MaxIPStates = 12000
			cfg.Sketch = true
			g, err := governor.New(governor.Config{MaxRanges: 400, MaxIPStates: 12000, SketchTier: true})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Governor = g
		},
		check: func(t *testing.T, e *Engine) {
			if e.tel.rangesCompacted.Value() == 0 {
				t.Error("stream never forced a compaction")
			}
			if e.tel.sketchDegrades.Value() == 0 {
				t.Error("stream never degraded a range to the sketch tier")
			}
			if e.tel.splitsDeferred.Value() == 0 {
				t.Error("stream never deferred a split")
			}
		},
		want: goldenDigests{
			cuts: [4]string{
				"b7e716bb269f67f18ba7c4735d95e736cf68e8db570fb1d868665b4cf008b447",
				"cbd36ad4581385b02c96ec13ddac28d677744697455b0f250f2c79ca46a89559",
				"a9aefdd36e433aabb20bcd39788159e877a9ad672c793e34465640d1cfab41b4",
				"1b44ed535a4ba9831acd9b598f3212a0b33cdb3662a7ece767bb14b085d12a50",
			},
			snapshot: "deee6eb50a3851c2d980e3715948e766b63f636c3988675ad3365b38269e77b1",
			events:   "27cf4478f78844ef5670df9822dd53497a5864bc19f8b6c71f26d04d9380e56b",
			nEvents:  2072,
		},
	},
}

// goldenRecords generates one stream's records: the scenario's traffic with
// the optional spoofed scan riding between the generated records.
func goldenRecords(t *testing.T, gs goldenStream) []flow.Record {
	t.Helper()
	sc, err := trafficgen.NewScenario(trafficgen.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	gen := trafficgen.DefaultGenConfig()
	gen.FlowsPerMinute = goldenFlowsPerMinute
	gen.Diurnal = false
	gen.Seed = 7
	if gs.gen != nil {
		gs.gen(&gen)
	}
	ifaces := sc.Topo.Interfaces()
	scan := rand.New(rand.NewPCG(7, 0x5ca9))
	var recs []flow.Record
	err = sc.Stream(sc.Start, sc.Start.Add(goldenMinutes*time.Minute), gen, func(r flow.Record) bool {
		recs = append(recs, r)
		if gs.scanFrom > 0 && !r.Ts.Before(sc.Start.Add(time.Duration(gs.scanFrom)*time.Minute)) {
			v := scan.Uint32()
			recs = append(recs, flow.Record{
				Ts:      r.Ts,
				Src:     netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}),
				Dst:     r.Dst,
				In:      ifaces[scan.IntN(len(ifaces))].In,
				Bytes:   64,
				Packets: 1,
			})
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func hexDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// snapshotDigest hashes a Snapshot with every counter map rendered in
// (router, iface) order.
func snapshotDigest(snap []RangeInfo) string {
	var b strings.Builder
	for _, ri := range snap {
		ins := make([]flow.Ingress, 0, len(ri.Counters))
		for in := range ri.Counters {
			ins = append(ins, in)
		}
		sort.Slice(ins, func(i, j int) bool { return lessIngress(ins[i], ins[j]) })
		fmt.Fprintf(&b, "%v %v %v %v %v %v %d %d %v %v |", ri.Prefix, ri.Classified, ri.Ingress,
			ri.Confidence, ri.Samples, ri.NCidr, ri.LastSeen.UnixNano(), ri.ClassifiedAt.UnixNano(),
			ri.Bytes, ri.Sketched)
		for _, in := range ins {
			fmt.Fprintf(&b, " %v=%v", in, ri.Counters[in])
		}
		b.WriteByte('\n')
	}
	return hexDigest([]byte(b.String()))
}

// eventsDigest hashes the event stream cycle by cycle, each cycle's events
// sorted and stripped of Seq: the order of events within one stage-2 phase
// is not part of the pinned behaviour, their content and cycle are.
func eventsDigest(t *testing.T, events []Event) string {
	t.Helper()
	byCycle := make(map[uint64][]string)
	var cycles []uint64
	for _, ev := range events {
		ev.Seq = 0
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := byCycle[ev.Cycle]; !ok {
			cycles = append(cycles, ev.Cycle)
		}
		byCycle[ev.Cycle] = append(byCycle[ev.Cycle], string(line))
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	h := sha256.New()
	for _, c := range cycles {
		lines := byCycle[c]
		sort.Strings(lines)
		for _, l := range lines {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineGoldenStreams pins the engine's observable behaviour on four
// fixed-seed streams: checkpoint bytes at three cut points and at the end,
// the final snapshot, and the per-cycle event sets. The digests were
// recorded on the trie-backed engine; a rewrite of the partition's
// representation must reproduce them unchanged.
func TestEngineGoldenStreams(t *testing.T) {
	for _, gs := range goldenStreams {
		gs := gs
		t.Run(gs.name, func(t *testing.T) {
			recs := goldenRecords(t, gs)
			cfg := testConfig()
			var events []Event
			cfg.OnEvent = func(ev Event) { events = append(events, ev) }
			if gs.cfg != nil {
				gs.cfg(t, &cfg)
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got goldenDigests
			for i, r := range recs {
				e.Feed(r)
				for c := 0; c < 3; c++ {
					if i+1 == (c+1)*len(recs)/4 {
						got.cuts[c] = hexDigest(e.MarshalState())
					}
				}
			}
			got.cuts[3] = hexDigest(e.MarshalState())
			got.snapshot = snapshotDigest(e.Snapshot())
			got.events = eventsDigest(t, events)
			got.nEvents = len(events)
			if uint64(got.nEvents) != e.Seq() {
				t.Errorf("collected %d events, engine Seq = %d", got.nEvents, e.Seq())
			}
			if gs.check != nil {
				gs.check(t, e)
			}
			if got != gs.want {
				t.Errorf("digests changed (ranges %d, cycles %d):\n got: %#v\nwant: %#v",
					e.RangeCount(), e.Cycles(), got, gs.want)
			}
		})
	}
}
