package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ipd/internal/telemetry"
)

// keep is how many checkpoint files a Manager retains (older ones are pruned
// after each successful save): the newest plus one fallback, so a checkpoint
// that turns out corrupt (torn write discovered at restore) still leaves a
// valid predecessor.
const keep = 2

// ErrNoCheckpoint is returned by Load when the directory holds no
// checkpoint files at all (a cold start, not a failure).
var ErrNoCheckpoint = errors.New("persist: no checkpoint found")

// Options configures a Manager.
type Options struct {
	// Dir is the checkpoint directory; it is created if missing.
	Dir string
	// Registry, when non-nil, exposes the manager's accounting:
	// ipd_checkpoint_writes_total, ipd_checkpoint_errors_total,
	// ipd_checkpoint_bytes, ipd_checkpoint_last_unix, and
	// ipd_restore_journal_events_replayed.
	Registry *telemetry.Registry
}

// Manager owns a checkpoint directory: it saves payloads under rotating,
// sequence-numbered names with atomic replacement, prunes old files, and
// restores the newest payload that passes the caller's validation —
// falling back to older checkpoints when the newest is corrupt.
//
// Manager does not interpret payload bytes; core.Server (and the bare
// Engine) produce and consume them. All methods are safe for concurrent
// use from one writer and any readers of the metric atomics; Save itself is
// expected to be called from a single goroutine (the ingest loop).
type Manager struct {
	dir string

	writes   telemetry.Counter
	errs     telemetry.Counter
	bytes    telemetry.Gauge
	lastUnix telemetry.Gauge
	replayed telemetry.Counter

	// writeFile performs the atomic write; tests inject failures here
	// (checkpoint-write chaos runs as root, so permission tricks cannot
	// force errors).
	writeFile func(path string, data []byte) error
	// now stamps ipd_checkpoint_last_unix; injectable for tests.
	now func() time.Time
}

// NewManager creates the checkpoint directory if needed and returns a
// manager over it.
func NewManager(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: Options.Dir must be set")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		dir: opts.Dir,
		writeFile: func(path string, data []byte) error {
			return WriteFileAtomic(path, data, 0o644)
		},
		now: time.Now,
	}
	if opts.Registry != nil {
		m.RegisterMetrics(opts.Registry)
	}
	return m, nil
}

// RegisterMetrics exposes the manager's counters and gauges on reg.
func (m *Manager) RegisterMetrics(reg *telemetry.Registry) {
	reg.RegisterCounter("ipd_checkpoint_writes_total",
		"Checkpoints written successfully.", &m.writes)
	reg.RegisterCounter("ipd_checkpoint_errors_total",
		"Checkpoint write failures (the engine keeps serving; the previous checkpoint stays valid).", &m.errs)
	reg.RegisterGauge("ipd_checkpoint_bytes",
		"Size of the newest checkpoint in bytes.", &m.bytes)
	reg.RegisterGauge("ipd_checkpoint_last_unix",
		"Unix time of the newest successful checkpoint write.", &m.lastUnix)
	reg.RegisterCounter("ipd_restore_journal_events_replayed",
		"Journal-tail events replayed on top of the restored checkpoint at startup.", &m.replayed)
}

// SetWriteFile replaces the file-writing step (fault-injection hook for
// chaos tests). nil restores the atomic default.
func (m *Manager) SetWriteFile(fn func(path string, data []byte) error) {
	if fn == nil {
		fn = func(path string, data []byte) error {
			return WriteFileAtomic(path, data, 0o644)
		}
	}
	m.writeFile = fn
}

// Dir returns the checkpoint directory.
func (m *Manager) Dir() string { return m.dir }

// Save writes data as the checkpoint for event sequence seq and prunes
// files beyond the retention count. A failed write is counted and returned;
// previously saved checkpoints are untouched, so the caller can keep
// serving and retry at the next interval.
func (m *Manager) Save(seq uint64, data []byte) error {
	path := filepath.Join(m.dir, checkpointName(seq))
	if err := m.writeFile(path, data); err != nil {
		m.errs.Inc()
		return fmt.Errorf("persist: checkpoint save: %w", err)
	}
	m.writes.Inc()
	m.bytes.Set(int64(len(data)))
	m.lastUnix.Set(m.now().Unix())
	m.prune()
	return nil
}

// prune removes checkpoint files beyond the retention count, oldest first.
// Removal errors are counted but otherwise ignored: retention is advisory,
// correctness only needs the newest valid file.
func (m *Manager) prune() {
	names, err := listCheckpoints(m.dir)
	if err != nil {
		m.errs.Inc()
		return
	}
	for _, name := range names[min(len(names), keep):] {
		if err := os.Remove(filepath.Join(m.dir, name)); err != nil {
			m.errs.Inc()
		}
	}
}

// Load restores from the newest checkpoint that try accepts, scanning from
// newest to oldest so one corrupt file (torn write, bit rot) falls back to
// its predecessor. try receives the raw payload and should fully validate
// and apply it, returning an error to reject. Load returns the accepted
// file's path, ErrNoCheckpoint when the directory has none, or a combined
// error when every candidate was rejected.
func (m *Manager) Load(try func(data []byte) error) (string, error) {
	names, err := listCheckpoints(m.dir)
	if err != nil {
		return "", err
	}
	if len(names) == 0 {
		return "", ErrNoCheckpoint
	}
	var errs []error
	for _, name := range names {
		path := filepath.Join(m.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		if err := try(data); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		return path, nil
	}
	return "", fmt.Errorf("persist: no valid checkpoint: %w", errors.Join(errs...))
}

// NoteReplayed accounts n journal-tail events replayed during restore
// (ipd_restore_journal_events_replayed).
func (m *Manager) NoteReplayed(n int) {
	if n > 0 {
		m.replayed.Add(uint64(n))
	}
}

// Replayed returns the cumulative journal-tail replay count.
func (m *Manager) Replayed() uint64 { return m.replayed.Value() }

// Writes returns the cumulative successful checkpoint-write count.
func (m *Manager) Writes() uint64 { return m.writes.Value() }

// Errors returns the cumulative checkpoint-write failure count.
func (m *Manager) Errors() uint64 { return m.errs.Value() }
