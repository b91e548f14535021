package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipd/internal/persist"
)

func newTestCheckpointManager(t *testing.T, dir string) *persist.Manager {
	t.Helper()
	mgr, err := persist.NewManager(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TestServerCancelUnderSaturation cancels RunQueue while a fast producer
// keeps the queue full and snapshot readers hammer the lock from other
// goroutines. With -race this validates the locking across the cancellation
// path (the post-cancel drain + finish); the accounting check validates that
// the graceful drain ingested everything the producer managed to offer
// before the queue was abandoned.
func TestServerCancelUnderSaturation(t *testing.T) {
	s := testServerJournaled(t)
	const capacity = 1 << 10
	q := NewIngestQueue(capacity)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunQueue(ctx, q) }()

	// Snapshot readers interleave at batch boundaries.
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				s.Snapshot()
				s.Mapped()
				s.Stats()
			}
		}()
	}

	// A producer that keeps the queue full until told to stop. It cycles the
	// stream and never closes the queue, so RunQueue can only end by the
	// cancellation. It offers only while there is room: the queue would shed
	// where a channel blocked.
	recs := recordStream(20)
	var sent atomic.Uint64
	stopProducer := make(chan struct{})
	producerDone := make(chan struct{})
	go func() {
		defer close(producerDone)
		for i := 0; ; {
			select {
			case <-stopProducer:
				return
			default:
			}
			if q.Len() == capacity {
				runtime.Gosched()
				continue
			}
			q.Offer(recs[i%len(recs)])
			sent.Add(1)
			i++
		}
	}()

	time.Sleep(20 * time.Millisecond) // let the pipeline saturate
	cancel()
	err := <-done
	close(stopProducer)
	<-producerDone
	close(stopReaders)
	wg.Wait()

	if err != context.Canceled {
		t.Fatalf("RunQueue = %v, want context.Canceled", err)
	}
	if q.Shed() != 0 {
		t.Fatalf("queue shed %d records", q.Shed())
	}
	// Everything offered before the producer stopped is accounted for:
	// ingested by the drain, deliberately dropped by the statistical-time
	// binner (the cycling producer replays stale timestamps), or still
	// sitting in the abandoned queue. Nothing vanished silently.
	left := uint64(q.Len())
	_, bin := s.Stats()
	accounted := bin.Accepted + bin.DroppedStale + bin.DroppedFuture + left
	if accounted != sent.Load() {
		t.Errorf("accepted %d + dropped %d + left %d != sent %d (drain lost records)",
			bin.Accepted, bin.DroppedStale+bin.DroppedFuture, left, sent.Load())
	}
	// A final cycle ran: snapshots after cancel see the flushed state.
	if len(s.Snapshot()) == 0 {
		t.Error("no ranges after cancellation drain")
	}
}

// TestServerCheckpointDuringSnapshots runs a checkpointing server under
// saturating input while snapshot readers race the batch-boundary checkpoint
// encode; with -race this validates that EncodeCheckpoint's lock scope is
// sound against concurrent readers and the ingest path.
func TestServerCheckpointDuringSnapshots(t *testing.T) {
	dir := t.TempDir()
	mgr := newTestCheckpointManager(t, dir)
	s := testServerJournaled(t)
	s.SetCheckpoint(mgr, 1)

	recs := recordStream(10)
	q := NewIngestQueue(len(recs))
	done := make(chan error, 1)
	go func() { done <- s.RunQueue(context.Background(), q) }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Snapshot()
				data, _ := s.EncodeCheckpoint()
				if len(data) == 0 {
					t.Error("empty checkpoint payload")
					return
				}
			}
		}()
	}

	for _, r := range recs {
		q.Offer(r)
	}
	q.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if q.Shed() != 0 {
		t.Fatalf("queue shed %d records", q.Shed())
	}
	close(stop)
	wg.Wait()
	if mgr.Writes() == 0 {
		t.Error("no checkpoints written under concurrent snapshots")
	}
}
