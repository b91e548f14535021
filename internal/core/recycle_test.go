package core

import (
	"bytes"
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"ipd/internal/flow"
	"ipd/internal/stattime"
)

// TestRunQueueRecycledBucketsUnderReaders drives RunQueue across a dozen
// bucket flushes — every one hands its record buffer back to the binner,
// which fills it again for a later bucket — while readers hammer Snapshot,
// Mapped and LookupTable. The resulting engine state must equal, byte for
// byte, that of a serial engine fed the same buckets from buffers that are
// never reused: stage 1 saw every record exactly as it was binned, and
// nothing the engine or a reader holds points into a recycled buffer. Run
// with -race.
func TestRunQueueRecycledBucketsUnderReaders(t *testing.T) {
	const minutes, perMinute = 12, 400
	stream := make([]flow.Record, 0, minutes*perMinute)
	var wantBytes uint64
	for m := 0; m < minutes; m++ {
		for i := 0; i < perMinute; i++ {
			ts := base.Add(time.Duration(m)*time.Minute + time.Duration(i)*100*time.Millisecond)
			if i%7 == 3 && m > 0 {
				ts = ts.Add(-45 * time.Second) // late: rebinned into the previous bucket
			}
			in := inA
			if i%3 == 0 {
				in = inB
			}
			r := flow.Record{Ts: ts, Src: netip.AddrFrom4([4]byte{10, byte(m % 4), byte(i / 256), byte(i)}),
				In: in, Bytes: uint32(1 + m*perMinute + i), Packets: 1}
			wantBytes += uint64(r.Bytes)
			stream = append(stream, r)
		}
	}

	// Reference: same binning, records copied out of every bucket and
	// observed one by one, no buffer ever handed back.
	ref, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	refBin, err := stattime.NewBinner(stattime.DefaultConfig(), func(b stattime.Bucket) {
		for _, r := range append([]flow.Record(nil), b.Records...) {
			ref.Observe(r)
		}
		ref.AdvanceTo(ref.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range stream {
		refBin.Offer(r)
	}
	refBin.Flush()
	ref.ForceCycle()

	s := testServer(t)
	q := NewIngestQueue(len(stream))
	done := make(chan error, 1)
	go func() { done <- s.RunQueue(context.Background(), q) }()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ri := range s.Snapshot() {
					if !ri.Prefix.IsValid() {
						t.Error("snapshot returned an invalid prefix")
						return
					}
				}
				s.Mapped()
				s.LookupTable()
			}
		}()
	}
	for _, r := range stream {
		q.Offer(r)
	}
	q.Close()
	if err := <-done; err != nil {
		t.Fatalf("RunQueue: %v", err)
	}
	close(stop)
	readers.Wait()

	eng, bin := s.Stats()
	if q.Shed() != 0 || eng.Records != uint64(len(stream)) || eng.BytesTotal != wantBytes {
		t.Fatalf("engine saw %d records / %d bytes (shed %d), want %d / %d", eng.Records, eng.BytesTotal, q.Shed(), len(stream), wantBytes)
	}
	if bin.BucketsEmitted < minutes {
		t.Fatalf("only %d buckets flushed, want at least %d", bin.BucketsEmitted, minutes)
	}
	s.mu.Lock()
	got := s.eng.MarshalState()
	s.mu.Unlock()
	if want := ref.MarshalState(); !bytes.Equal(got, want) {
		t.Errorf("engine state after recycled buckets differs from the never-recycled reference (%d vs %d bytes)", len(got), len(want))
	}
}

// TestObserveBatchMatchesObserve feeds two engines the same records, one
// through Observe and one through ObserveBatch in uneven slices (invalid
// records included), and expects identical state and counters.
func TestObserveBatchMatchesObserve(t *testing.T) {
	var stream []flow.Record
	for i := 0; i < 3000; i++ {
		r := qrec(i)
		switch {
		case i%11 == 0:
			r.Src = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i >> 8), byte(i)})
		case i%97 == 0:
			r = flow.Record{} // invalid: dropped and counted
		}
		stream = append(stream, r)
	}
	one, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for lo, n := 0, 1; lo < len(stream); lo, n = lo+n, n*3%500+1 {
		hi := min(lo+n, len(stream))
		for _, r := range stream[lo:hi] {
			one.Observe(r)
		}
		batched.ObserveBatch(stream[lo:hi])
		one.AdvanceTo(one.Now())
		batched.AdvanceTo(batched.Now())
	}
	a, b := one.Stats(), batched.Stats()
	a.LastCycleDuration, b.LastCycleDuration = 0, 0
	if a != b || a.RecordsV6 == 0 || a.RecordsDropped == 0 {
		t.Errorf("stats differ (or the stream lacks v6/invalid records):\n Observe      %+v\n ObserveBatch %+v", a, b)
	}
	if !bytes.Equal(one.MarshalState(), batched.MarshalState()) {
		t.Error("engine state differs between Observe and ObserveBatch")
	}
}

// TestObserveBatchReentrancyGuard: an OnEvent callback that feeds the engine
// (through ObserveBatch, or Observe as its one-record form) trips the same
// guard as one that drives a cycle.
func TestObserveBatchReentrancyGuard(t *testing.T) {
	for name, reenter := range map[string]func(*Engine){
		"ObserveBatch": func(e *Engine) { e.ObserveBatch([]flow.Record{qrec(1)}) },
		"Observe":      func(e *Engine) { e.Observe(qrec(1)) },
	} {
		t.Run(name, func(t *testing.T) {
			var eng *Engine
			cfg := testConfig()
			cfg.OnEvent = func(Event) {
				if eng != nil {
					reenter(eng)
				}
			}
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			eng = e
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "OnEvent") {
					t.Fatalf("reentrant %s from OnEvent: panic = %q, want the OnEvent contract message", name, msg)
				}
			}()
			feedN(e, base, netip.MustParseAddr("10.0.0.0"), 100, inA)
			e.AdvanceTo(base.Add(time.Minute))
		})
	}
}
