package core

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/netaddr"
	"ipd/internal/persist"
	"ipd/internal/stattime"
	"ipd/internal/telemetry"
)

// recordStream builds a deterministic stream that drives the engine through
// splits, classifications, and several stage-2 cycles: a few /24s with
// distinct dominant ingresses, timestamps advancing one minute per round.
func recordStream(rounds int) []flow.Record {
	nets := []struct {
		base string
		in   flow.Ingress
	}{
		{"10.0.0.0", inA},
		{"10.0.1.0", inA},
		{"172.16.0.0", inB},
		{"192.168.5.0", inC},
	}
	var out []flow.Record
	ts := base
	for r := 0; r < rounds; r++ {
		for _, n := range nets {
			a := netip.MustParseAddr(n.base).As4()
			for i := 0; i < 40; i++ {
				a[3] = byte(i)
				out = append(out, flow.Record{
					Ts: ts, Src: netip.AddrFrom4(a), In: n.in,
					Bytes: 500, Packets: 2,
				})
			}
		}
		ts = ts.Add(time.Minute)
	}
	return out
}

// testServerJournaled is testServer with a no-op event sink attached, so the
// engine stamps real sequence numbers (the journaling deployment shape that
// checkpoint rotation keys on).
func testServerJournaled(t *testing.T) *Server {
	t.Helper()
	cfg := testConfig()
	cfg.OnEvent = func(Event) {}
	s, err := NewServer(cfg, stattime.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// feed pushes records through the server's batch-ingest path, the same code
// RunQueue uses, without the queue plumbing — so tests control exactly where a
// "crash" happens.
func feed(s *Server, recs []flow.Record) {
	for len(recs) > 0 {
		n := runBatch
		if len(recs) < n {
			n = len(recs)
		}
		s.Ingest(recs[:n])
		recs = recs[n:]
	}
}

// TestKillAndRestore is the crash-recovery equivalence test: a run that is
// killed mid-stream, restored from its checkpoint, and fed the remaining
// records must end byte-identical to a run that never died.
func TestKillAndRestore(t *testing.T) {
	recs := recordStream(6)
	cut := len(recs) / 2

	// The uninterrupted run.
	ref := testServerJournaled(t)
	feed(ref, recs)
	ref.Finish()
	wantData, wantSeq := ref.EncodeCheckpoint()

	// The killed run: ingests the first half, checkpoints at a batch
	// boundary, then "crashes" (is simply abandoned).
	killed := testServerJournaled(t)
	feed(killed, recs[:cut])
	ckpt, ckptSeq := killed.EncodeCheckpoint()

	// The restored run picks up from the checkpoint and sees the rest of the
	// stream.
	restored := testServerJournaled(t)
	if err := restored.RestoreCheckpoint(ckpt); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	if got := restored.Seq(); got != ckptSeq {
		t.Fatalf("restored seq = %d, want %d", got, ckptSeq)
	}
	feed(restored, recs[cut:])
	restored.Finish()
	gotData, gotSeq := restored.EncodeCheckpoint()

	if gotSeq != wantSeq {
		t.Errorf("final seq = %d, want %d", gotSeq, wantSeq)
	}
	if !bytes.Equal(gotData, wantData) {
		t.Errorf("restored run diverged: %d-byte state vs %d-byte reference",
			len(gotData), len(wantData))
	}
	// Sanity: the streams actually did something.
	if len(ref.Mapped()) == 0 {
		t.Error("reference run classified nothing; test stream too weak")
	}
}

// TestKillAndRestoreViaManager runs the same equivalence through the on-disk
// path: Manager.Save at the kill point, Manager.Load into the new server.
func TestKillAndRestoreViaManager(t *testing.T) {
	recs := recordStream(6)
	cut := len(recs) / 3

	ref := testServerJournaled(t)
	feed(ref, recs)
	ref.Finish()
	wantData, _ := ref.EncodeCheckpoint()

	dir := t.TempDir()
	mgr, err := persist.NewManager(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	killed := testServerJournaled(t)
	feed(killed, recs[:cut])
	data, seq := killed.EncodeCheckpoint()
	if err := mgr.Save(seq, data); err != nil {
		t.Fatalf("Save: %v", err)
	}

	restored := testServerJournaled(t)
	if _, err := mgr.Load(restored.RestoreCheckpoint); err != nil {
		t.Fatalf("Load: %v", err)
	}
	feed(restored, recs[cut:])
	restored.Finish()
	gotData, _ := restored.EncodeCheckpoint()
	if !bytes.Equal(gotData, wantData) {
		t.Error("restored-from-disk run diverged from uninterrupted run")
	}
}

func TestEngineMarshalRoundTrip(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	feedN(eng, base, netip.MustParseAddr("10.1.0.0"), 200, inA)
	feedN(eng, base.Add(time.Minute), netip.MustParseAddr("10.1.0.0"), 200, inA)
	eng.AdvanceTo(base.Add(2 * time.Minute))
	data := eng.MarshalState()

	fresh, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.UnmarshalState(data); err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	if !bytes.Equal(fresh.MarshalState(), data) {
		t.Error("re-marshal differs from original")
	}
	if fresh.Seq() != eng.Seq() {
		t.Errorf("seq = %d, want %d", fresh.Seq(), eng.Seq())
	}
	// Snapshots agree element-wise.
	a, b := eng.Snapshot(), fresh.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Prefix != b[i].Prefix || a[i].Classified != b[i].Classified ||
			a[i].Ingress != b[i].Ingress {
			t.Errorf("range %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEngineUnmarshalAllOrNothing(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	feedN(eng, base, netip.MustParseAddr("10.2.0.0"), 100, inB)
	before := eng.MarshalState()

	other, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	feedN(other, base, netip.MustParseAddr("172.20.0.0"), 300, inC)
	data := other.MarshalState()

	// Every single-bit corruption must leave the engine exactly as it was.
	for _, i := range []int{0, 7, len(data) / 2, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if err := eng.UnmarshalState(mut); err == nil {
			t.Fatalf("corrupt payload (byte %d) accepted", i)
		}
		if !bytes.Equal(eng.MarshalState(), before) {
			t.Fatalf("failed restore (byte %d) mutated the engine", i)
		}
	}
	// Truncations too.
	if err := eng.UnmarshalState(data[:len(data)/2]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if !bytes.Equal(eng.MarshalState(), before) {
		t.Fatal("failed restore mutated the engine")
	}
}

// TestRestoreValidatesTiling: a CRC-valid checkpoint whose ranges do not tile
// both families would restore and then mis-attribute traffic silently; the
// restore must name the first gap or overlap instead. Wire order is free.
func TestRestoreValidatesTiling(t *testing.T) {
	cases := []struct {
		name    string
		ranges  []string
		wantErr string // substring; empty means the restore must succeed
	}{
		{"two roots", []string{"0.0.0.0/0", "::/0"}, ""},
		{"wrong order on the wire", []string{"8000::/1", "128.0.0.0/1", "::/1", "0.0.0.0/2", "64.0.0.0/2"}, ""},
		{"gap in the middle", []string{"0.0.0.0/2", "128.0.0.0/1", "::/0"}, "gap in the partition before range 128.0.0.0/1"},
		{"gap at the start", []string{"128.0.0.0/1", "::/0"}, "gap in the partition before range 128.0.0.0/1"},
		{"gap at the end", []string{"0.0.0.0/0", "::/1", "8000::/2"}, "gap in the partition after range 8000::/2"},
		{"overlap", []string{"0.0.0.0/1", "64.0.0.0/2", "128.0.0.0/1", "::/0"}, "range 64.0.0.0/2 overlaps 0.0.0.0/1"},
		{"nested under a root", []string{"0.0.0.0/0", "10.0.0.0/8", "::/0"}, "range 10.0.0.0/8 overlaps 0.0.0.0/0"},
		{"duplicate", []string{"0.0.0.0/0", "::/0", "::/0"}, "range ::/0 overlaps ::/0"},
		{"missing IPv6 root", []string{"0.0.0.0/0"}, "no IPv6 range"},
		{"missing IPv4 root", []string{"::/0"}, "no IPv4 range"},
		{"no ranges", nil, "no IPv4 range"},
	}
	for _, c := range cases {
		enc := persist.NewEncoder(checkpointMagic, checkpointVersion)
		enc.Bool(false) // no binner section
		enc.Uvarint(7)  // seq
		enc.Uvarint(3)  // cycle id
		enc.Bool(true)  // started
		enc.Time(base)
		enc.Time(base)
		enc.Uvarint(uint64(len(c.ranges)))
		for _, p := range c.ranges {
			encodeRange(enc, newRangeState(netaddr.KeyOf(netip.MustParsePrefix(p))))
		}
		enc.Bool(false) // no sketch section
		eng, err := NewEngine(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		before := eng.MarshalState()
		err = eng.UnmarshalState(enc.Finish())
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: restore failed: %v", c.name, err)
		case c.wantErr == "":
			checkEngineInvariants(t, eng, false, nil)
			if eng.RangeCount() != len(c.ranges) {
				t.Errorf("%s: restored %d ranges, want %d", c.name, eng.RangeCount(), len(c.ranges))
			}
		case err == nil || !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: restore error = %v, want one containing %q", c.name, err, c.wantErr)
		case !bytes.Equal(eng.MarshalState(), before):
			t.Errorf("%s: rejected restore mutated the engine", c.name)
		}
	}
}

func TestEngineRejectsServerCheckpoint(t *testing.T) {
	s := testServer(t)
	feed(s, recordStream(2))
	data, _ := s.EncodeCheckpoint()
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.UnmarshalState(data); err == nil {
		t.Fatal("engine accepted a server checkpoint with binner state")
	}
}

func TestServerRestoreAcceptsEngineOnlyPayload(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	feedN(eng, base, netip.MustParseAddr("10.3.0.0"), 150, inA)
	s := testServer(t)
	if err := s.RestoreCheckpoint(eng.MarshalState()); err != nil {
		t.Fatalf("RestoreCheckpoint(engine payload): %v", err)
	}
	if s.Seq() != eng.Seq() {
		t.Errorf("seq = %d, want %d", s.Seq(), eng.Seq())
	}
}

func TestServerRestoreAllOrNothing(t *testing.T) {
	src := testServer(t)
	feed(src, recordStream(3))
	data, _ := src.EncodeCheckpoint()

	dst := testServer(t)
	feed(dst, recordStream(1))
	before, beforeSeq := dst.EncodeCheckpoint()

	// Corrupt the tail of the payload: the engine section may decode fine,
	// but the binner section (or the CRC) fails — nothing may change.
	mut := append([]byte(nil), data...)
	mut[len(mut)-1] ^= 0xff
	if err := dst.RestoreCheckpoint(mut); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	after, afterSeq := dst.EncodeCheckpoint()
	if !bytes.Equal(after, before) || afterSeq != beforeSeq {
		t.Error("failed restore mutated the server")
	}
}

// TestJournalTailReplayAfterCheckpoint exercises the full recovery recipe:
// restore a checkpoint, then apply the journal events recorded after it, and
// compare the resulting partition structure against the uninterrupted run.
func TestJournalTailReplayAfterCheckpoint(t *testing.T) {
	var events []Event
	cfg := testConfig()
	cfg.OnEvent = func(ev Event) { events = append(events, ev) }
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := recordStream(6)
	cut := len(recs) / 2
	for _, r := range recs[:cut] {
		eng.Observe(r)
		eng.AdvanceTo(r.Ts)
	}
	ckpt := eng.MarshalState()
	ckptSeq := eng.Seq()
	for _, r := range recs[cut:] {
		eng.Observe(r)
		eng.AdvanceTo(r.Ts)
	}

	restored, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.UnmarshalState(ckpt); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, ev := range events {
		if ev.Seq <= ckptSeq {
			continue
		}
		if err := restored.ApplyEvent(ev); err != nil {
			t.Fatalf("ApplyEvent seq %d: %v", ev.Seq, err)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("no tail events to replay; test stream too weak")
	}
	if restored.Seq() != eng.Seq() {
		t.Errorf("replayed seq = %d, want %d", restored.Seq(), eng.Seq())
	}
	// The replayed partition structure must match exactly: same ranges, same
	// classifications. (Counters are approximate by design.)
	if err := DiffPartitions(eng.Snapshot(), restored.Snapshot()); err != nil {
		t.Errorf("replayed partition diverged: %v", err)
	}
}

func TestApplyEventRejectsOutOfOrder(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Seq: 1, Kind: EventCreated, Prefix: "0.0.0.0/0", At: base}
	if err := eng.ApplyEvent(ev); err != nil {
		t.Fatalf("first apply: %v", err)
	}
	if err := eng.ApplyEvent(ev); err == nil {
		t.Error("replayed duplicate seq accepted")
	}
	if err := eng.ApplyEvent(Event{Seq: 0, Kind: EventCreated, Prefix: "::/0", At: base}); err == nil {
		t.Error("seq 0 accepted after seq 1")
	}
}

func TestApplyEventStructuralErrors(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []Event{
		{Seq: 1, Kind: EventSplit, Prefix: "10.0.0.0/8", At: base,
			Children: []string{"10.0.0.0/9", "10.128.0.0/9"}}, // splits unknown range
		{Seq: 1, Kind: EventClassified, Prefix: "10.0.0.0/8", At: base}, // classifies unknown range
		{Seq: 1, Kind: EventCreated, Prefix: "not-a-prefix", At: base},  // bad prefix
		{Seq: 1, Kind: EventKind(99), Prefix: "10.0.0.0/8", At: base},   // unknown kind
		{Seq: 1, Kind: EventCreated, Prefix: "10.0.0.0/8", At: base},    // would nest inside the root
		{Seq: 1, Kind: EventSplit, Prefix: "0.0.0.0/0", At: base,
			Children: []string{"0.0.0.0/1", "64.0.0.0/2"}}, // not the range's two halves
		{Seq: 1, Kind: EventDropped, Prefix: "0.0.0.0/0", At: base,
			Children: []string{"0.0.0.0/1", "128.0.0.0/1"}}, // children are not active
		{Seq: 1, Kind: EventSplit, Prefix: "0.0.0.0/0", At: base},                     // split without children
		{Seq: 1, Kind: EventClassified, Prefix: "1.2.3.0/24", Ingress: inA, At: base}, // classifies an inactive range
	}
	for i, ev := range cases {
		if err := eng.ApplyEvent(ev); err == nil {
			t.Errorf("case %d accepted: %+v", i, ev)
		}
		if eng.Seq() != 0 {
			t.Fatalf("case %d advanced seq despite error", i)
		}
	}
}

// TestCheckpointWriteFailureKeepsServing is the chaos test for a dying disk:
// checkpoint writes fail, the error counter moves, ingest keeps going, and
// the last good checkpoint on disk still restores.
func TestCheckpointWriteFailureKeepsServing(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	mgr, err := persist.NewManager(persist.Options{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// The disk dies when dead is set. The write step is swapped in before
	// RunQueue starts: swapping it later would race with RunQueue's saves.
	var dead atomic.Bool
	mgr.SetWriteFile(func(path string, data []byte) error {
		if dead.Load() {
			return errors.New("injected: disk gone")
		}
		return persist.WriteFileAtomic(path, data, 0o644)
	})
	s := testServerJournaled(t)
	s.SetCheckpoint(mgr, 1)

	recs := recordStream(8)
	cut := len(recs) * 3 / 4 // six of eight rounds: several cycles before the cut

	q := NewIngestQueue(len(recs))
	done := make(chan error, 1)
	go func() { done <- s.RunQueue(context.Background(), q) }()
	for _, r := range recs[:cut] {
		q.Offer(r)
	}
	// Wait until at least one checkpoint landed on disk.
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Writes() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The disk dies.
	dead.Store(true)
	for _, r := range recs[cut:] {
		q.Offer(r)
	}
	q.Close()
	if err := <-done; err != nil {
		t.Fatalf("RunQueue: %v", err)
	}
	if q.Shed() != 0 {
		t.Fatalf("queue shed %d records", q.Shed())
	}

	// Ingest survived the failing checkpoints...
	eng, _ := s.Stats()
	if eng.Records != uint64(len(recs)) {
		t.Errorf("ingested %d records, want %d", eng.Records, len(recs))
	}
	if mgr.Errors() == 0 {
		t.Error("no checkpoint errors counted despite dead disk")
	}
	// ...and the last good checkpoint still restores.
	fresh := testServerJournaled(t)
	if _, err := mgr.Load(fresh.RestoreCheckpoint); err != nil {
		t.Fatalf("Load after disk death: %v", err)
	}
	if len(fresh.Snapshot()) == 0 {
		t.Error("restored checkpoint is empty")
	}
}

// TestRunWritesPeriodicAndFinalCheckpoints checks the cadence plumbing: with
// SetCheckpoint(n=1) a multi-cycle stream produces several checkpoint files
// (bounded by rotation) and a final one at shutdown covering the full run.
func TestRunWritesPeriodicAndFinalCheckpoints(t *testing.T) {
	dir := t.TempDir()
	mgr, err := persist.NewManager(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := testServerJournaled(t)
	s.SetCheckpoint(mgr, 1)

	const rounds = 5
	recs := recordStream(rounds)
	q := NewIngestQueue(len(recs))
	done := make(chan error, 1)
	go func() { done <- s.RunQueue(context.Background(), q) }()
	// Offer a minute at a time and let the drain catch up, so stage-2 cycles
	// complete between batches, as behind a paced exporter.
	for round := len(recs) / rounds; len(recs) > 0; recs = recs[round:] {
		for _, r := range recs[:round] {
			q.Offer(r)
		}
		for q.Len() > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	q.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if q.Shed() != 0 {
		t.Fatalf("queue shed %d records", q.Shed())
	}
	if mgr.Writes() < 2 {
		t.Errorf("only %d checkpoint writes; want periodic plus final", mgr.Writes())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The manager keeps the newest checkpoint plus one fallback.
	if len(entries) == 0 || len(entries) > 2 {
		t.Errorf("dir holds %d checkpoints, want 1..2 (rotation)", len(entries))
	}
	// The newest checkpoint covers the whole run (final checkpoint after the
	// shutdown flush).
	fresh := testServerJournaled(t)
	path, err := mgr.Load(fresh.RestoreCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Seq() != s.Seq() {
		t.Errorf("final checkpoint %s covers seq %d, want %d",
			filepath.Base(path), fresh.Seq(), s.Seq())
	}
}

// TestServerGracefulCancelDrains pins the shutdown bug fix: a cancelled
// RunQueue must ingest the records already buffered in the queue and flush
// the binner's open buckets before returning — a SIGTERM loses nothing that
// reached the process.
func TestServerGracefulCancelDrains(t *testing.T) {
	st := stattime.DefaultConfig()
	s, err := NewServer(testConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	recs := recordStream(3)
	q := NewIngestQueue(len(recs))
	for _, r := range recs {
		q.Offer(r)
	}
	// Cancel before RunQueue ever starts: everything it will see is
	// "buffered at cancellation time".
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RunQueue(ctx, q); err != context.Canceled {
		t.Fatalf("RunQueue = %v, want context.Canceled", err)
	}
	eng, bin := s.Stats()
	if eng.Records != uint64(len(recs)) {
		t.Errorf("drained %d records, want %d (graceful drain)", eng.Records, len(recs))
	}
	if bin.BucketsEmitted == 0 {
		t.Error("open buckets were not flushed on cancel")
	}
	if len(s.Snapshot()) == 0 {
		t.Error("no ranges after drain")
	}
}
