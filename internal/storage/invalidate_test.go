package storage

import (
	"errors"
	"testing"
)

// These tests pin the replica-apply safety valve: when a follower's grace
// period for open snapshots expires, the snapshots are invalidated — their
// reads fail with ErrSnapshotInvalidated — rather than silently observing
// pages the apply rewrote in place.

// TestSnapshotInvalidation marks open snapshots invalid and asserts pinned
// reads fail with ErrSnapshotInvalidated while unpinned readers and fresh
// snapshots keep working.
func TestSnapshotInvalidation(t *testing.T) {
	s, _ := openTempStore(t)
	want := crashWorkload(t, s, 3)

	sn := s.Snapshot()
	defer sn.Close()
	pinned := OpenBTreeAt(s, sn.Root(0), sn.Epoch())
	if _, ok, err := pinned.Get([]byte("c00-k00")); err != nil || !ok {
		t.Fatalf("pinned read before invalidation: ok=%v err=%v", ok, err)
	}

	s.InvalidateSnapshotsBelow(sn.Epoch() + 1)

	if _, _, err := pinned.Get([]byte("c00-k00")); !errors.Is(err, ErrSnapshotInvalidated) {
		t.Fatalf("pinned read after invalidation: err=%v, want ErrSnapshotInvalidated", err)
	}
	if _, _, err := pinned.Get([]byte("c01-k01")); !errors.Is(err, ErrSnapshotInvalidated) {
		t.Fatalf("second pinned read after invalidation: err=%v, want ErrSnapshotInvalidated", err)
	}

	// An unpinned tree reads the live state, which the mark never covers.
	live := OpenBTree(s, s.Root(0))
	for k, v := range want {
		got, ok, err := live.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("live read %q after invalidation: %q ok=%v err=%v", k, got, ok, err)
		}
	}

	// Once the epoch moves past the mark (as a completed apply does), new
	// snapshots are unaffected.
	crashWorkload2(t, s, 3, 4)
	sn2 := s.Snapshot()
	defer sn2.Close()
	if sn2.Epoch() < sn.Epoch()+1 {
		t.Fatalf("fresh snapshot epoch %d did not pass the mark %d", sn2.Epoch(), sn.Epoch()+1)
	}
	fresh := OpenBTreeAt(s, sn2.Root(0), sn2.Epoch())
	if _, ok, err := fresh.Get([]byte("c02-k03")); err != nil || !ok {
		t.Fatalf("fresh snapshot read after invalidation: ok=%v err=%v", ok, err)
	}
}

// TestSnapshotInvalidationMonotonic asserts the mark only moves up.
func TestSnapshotInvalidationMonotonic(t *testing.T) {
	s, _ := openTempStore(t)
	s.InvalidateSnapshotsBelow(9)
	s.InvalidateSnapshotsBelow(4) // must not regress
	if !s.snapshotInvalid(8) {
		t.Fatal("epoch 8 should stay invalid after a lower mark attempt")
	}
	if s.snapshotInvalid(9) {
		t.Fatal("epoch 9 is at the mark (exclusive bound) and should be valid")
	}
}

// TestInvalidationOnlyPinnedReaders sanity-checks that a long unpinned
// scan keeps working across an invalidation (the mark is about pinned
// epochs, not read duration).
func TestInvalidationOnlyPinnedReaders(t *testing.T) {
	s, _ := openTempStore(t)
	crashWorkload(t, s, 2)
	s.InvalidateSnapshotsBelow(s.MVCC().Epoch + 100)

	live := OpenBTree(s, s.Root(0))
	it, err := live.Seek(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for it.Valid() {
		n++
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if n != 16 {
		t.Fatalf("live scan saw %d keys, want 16", n)
	}
}
