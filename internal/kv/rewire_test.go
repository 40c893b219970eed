package kv

import (
	"fmt"
	"testing"
	"time"
)

// TestSetHostReroutesTrigger: after a move to a new host (a region
// move), a flush crossing the soft threshold must notify the NEW
// trigger only — the old server's pool no longer hears about this
// store — and count on the new host only.
func TestSetHostReroutesTrigger(t *testing.T) {
	oldTrig, newTrig := &recordingTrigger{}, &recordingTrigger{}
	var oldHost, newHost Counters
	s := NewStore(Config{MemstoreFlushBytes: 1 << 30, MaxStoreFiles: 2, BlockBytes: 256,
		Host: Host{Compactor: oldTrig, Counters: &oldHost}})
	defer s.Close()

	s.SetHost(Host{Compactor: newTrig, Counters: &newHost})
	for b := 0; b < 4; b++ {
		s.Put(fmt.Sprintf("k%d", b), []byte("v"))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	oldTrig.mu.Lock()
	oldCalls := len(oldTrig.calls)
	oldTrig.mu.Unlock()
	newTrig.mu.Lock()
	newCalls := len(newTrig.calls)
	newTrig.mu.Unlock()
	if oldCalls != 0 {
		t.Fatalf("old trigger still notified %d times after the move", oldCalls)
	}
	if newCalls == 0 {
		t.Fatal("new trigger never notified after the move")
	}
	if o, n := oldHost.Snapshot(), newHost.Snapshot(); o.Puts != 0 || o.Flushes != 0 || n.Puts != 4 || n.Flushes != 4 {
		t.Fatalf("old host counted %d puts, %d flushes; new host %d, %d; want 0, 0 and 4, 4", o.Puts, o.Flushes, n.Puts, n.Flushes)
	}
}

// TestSetHostReleasesStalledWriter: a writer parked on the hard file
// ceiling must wake and proceed when the store moves to a host without
// stalling (no Compactor), not wait out its stall timeout against a
// pool that no longer services it.
func TestSetHostReleasesStalledWriter(t *testing.T) {
	trig := &recordingTrigger{}
	s := NewStore(Config{
		MemstoreFlushBytes: 1 << 30,
		MaxStoreFiles:      1,
		StallTimeout:       30 * time.Second, // far beyond the test: release must come from the move
		BlockBytes:         256,
		Host:               Host{Compactor: trig, HardMaxStoreFiles: 2},
	})
	defer s.Close()
	for b := 0; b < 2; b++ {
		s.Put(fmt.Sprintf("k%d", b), []byte("v"))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- s.Put("stalled", []byte("v")) }()
	select {
	case err := <-done:
		t.Fatalf("writer did not stall at the hard ceiling (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.SetHost(Host{HardMaxStoreFiles: -1})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released write failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the move did not release the stalled writer")
	}
	if v, err := s.Get("stalled"); err != nil || string(v) != "v" {
		t.Fatalf("released write not visible: %q, %v", v, err)
	}
}

// TestStallUnderWayCounts: a snapshot taken inside one long stall
// already counts the stall's time so far, and the count grows while
// the writer stays parked. A move splits the stall: the old host keeps
// what it counted and counts no more, the new host counts from the
// move on, and neither host's sum ever falls.
func TestStallUnderWayCounts(t *testing.T) {
	var oldHost, newHost Counters
	s := NewStore(Config{
		MemstoreFlushBytes: 1 << 30,
		MaxStoreFiles:      1,
		StallTimeout:       30 * time.Second,
		BlockBytes:         256,
		Host:               Host{Compactor: &recordingTrigger{}, HardMaxStoreFiles: 2, Counters: &oldHost},
	})
	defer s.Close()
	for b := 0; b < 2; b++ {
		s.Put(fmt.Sprintf("k%d", b), []byte("v"))
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Put("stalled", []byte("v")) }()
	for oldHost.Snapshot().StalledWrites == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	first := oldHost.Snapshot().StallNanos
	if first <= 0 {
		t.Fatalf("a stall under way reads %d ns, want > 0", first)
	}
	time.Sleep(20 * time.Millisecond)
	atMove := oldHost.Snapshot().StallNanos
	if atMove < first+int64(10*time.Millisecond) {
		t.Fatalf("stall under way grew from %d to %d ns over 20ms", first, atMove)
	}

	// Still over the new host's ceiling: the writer parks again, now
	// counted there.
	s.SetHost(Host{Compactor: &recordingTrigger{}, HardMaxStoreFiles: 2, Counters: &newHost})
	moved := oldHost.Snapshot().StallNanos
	time.Sleep(20 * time.Millisecond)
	if got := oldHost.Snapshot().StallNanos; got != moved || got < atMove {
		t.Fatalf("old host's stall after the move: %d ns, then %d (was %d before it); want it frozen and not lower", moved, got, atMove)
	}
	if got := newHost.Snapshot().StallNanos; got < int64(10*time.Millisecond) {
		t.Fatalf("new host counts %d ns of the stall 20ms after the move", got)
	}
	if o, n := oldHost.Snapshot().StalledWrites, newHost.Snapshot().StalledWrites; o != 1 || n != 0 {
		t.Fatalf("stalled writes: old host %d, new host %d; want 1 and 0 (the write stalled once, before the move)", o, n)
	}

	before := newHost.Snapshot().StallNanos
	if err := s.Compact(false); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := newHost.Snapshot().StallNanos; got < before {
		t.Fatalf("new host's stall fell from %d to %d ns when it ended", before, got)
	}
	if got := oldHost.Snapshot().StallNanos; got != moved {
		t.Fatalf("old host's stall moved from %d to %d ns after the move", moved, got)
	}
}
