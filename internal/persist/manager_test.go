package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ipd/internal/telemetry"
)

func payload(seq uint64) []byte {
	enc := NewEncoder(testMagic, testVersion)
	enc.Uvarint(seq)
	return enc.Finish()
}

func newTestManager(t *testing.T) (*Manager, string) {
	t.Helper()
	dir := t.TempDir()
	mgr, err := NewManager(Options{Dir: dir, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return mgr, dir
}

func TestManagerSaveLoadRoundTrip(t *testing.T) {
	mgr, _ := newTestManager(t)
	want := payload(42)
	if err := mgr.Save(42, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var got []byte
	path, err := mgr.Load(func(data []byte) error {
		got = append([]byte(nil), data...)
		return nil
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if path == "" {
		t.Error("Load returned empty path")
	}
	if string(got) != string(want) {
		t.Error("Load returned different bytes than Save wrote")
	}
}

func TestManagerPrunesOldCheckpoints(t *testing.T) {
	mgr, dir := newTestManager(t)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := mgr.Save(seq, payload(seq)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != keep {
		t.Fatalf("kept %d checkpoints, want %d: %v", len(names), keep, names)
	}
	// Newest first: seq 5, then seq 4.
	if names[0] != checkpointName(5) || names[1] != checkpointName(4) {
		t.Errorf("kept %v, want newest two", names)
	}
}

func TestManagerLoadFallsBackPastCorruption(t *testing.T) {
	mgr, dir := newTestManager(t)
	if err := mgr.Save(1, payload(1)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Save(2, payload(2)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint on disk.
	newest := filepath.Join(dir, checkpointName(2))
	if err := os.WriteFile(newest, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	path, err := mgr.Load(func(data []byte) error {
		dec, err := NewDecoder(data, testMagic, testVersion)
		if err != nil {
			return err
		}
		seq, err = dec.Uvarint()
		return err
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if seq != 1 {
		t.Errorf("restored seq %d, want fallback to 1", seq)
	}
	if filepath.Base(path) != checkpointName(1) {
		t.Errorf("restored from %s, want %s", path, checkpointName(1))
	}
}

func TestManagerLoadNoCheckpoint(t *testing.T) {
	mgr, _ := newTestManager(t)
	if _, err := mgr.Load(func([]byte) error { return nil }); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("Load on empty dir = %v, want ErrNoCheckpoint", err)
	}
}

func TestManagerLoadAllCorrupt(t *testing.T) {
	mgr, _ := newTestManager(t)
	if err := mgr.Save(1, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("reject")
	_, err := mgr.Load(func([]byte) error { return sentinel })
	if err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load = %v, want joined restore errors", err)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("Load error %v does not wrap the restore failure", err)
	}
}

func TestManagerCountsWriteErrors(t *testing.T) {
	mgr, _ := newTestManager(t)
	if err := mgr.Save(1, payload(1)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	mgr.SetWriteFile(func(string, []byte) error { return boom })
	if err := mgr.Save(2, payload(2)); !errors.Is(err, boom) {
		t.Fatalf("Save with failing writer = %v, want wrapped error", err)
	}
	if mgr.Errors() != 1 || mgr.Writes() != 1 {
		t.Errorf("writes=%d errs=%d, want 1/1", mgr.Writes(), mgr.Errors())
	}
	// The previous checkpoint must still load after the failed write.
	mgr.SetWriteFile(nil)
	var seq uint64
	if _, err := mgr.Load(func(data []byte) error {
		dec, err := NewDecoder(data, testMagic, testVersion)
		if err != nil {
			return err
		}
		seq, err = dec.Uvarint()
		return err
	}); err != nil {
		t.Fatalf("Load after failed save: %v", err)
	}
	if seq != 1 {
		t.Errorf("restored seq %d, want 1", seq)
	}
}

func TestWriteFileAtomicReplacesWholeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFileAtomic(path, []byte("first version, longer"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Errorf("content = %q, want full replacement", got)
	}
	// No leftover temp files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("dir has %d entries, want 1 (temp files must be cleaned up)", len(entries))
	}
}
