package storage

import (
	"errors"
	"testing"
	"time"
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

// TestWALRetainCapOverridesFloor drives the log past a tiny retain cap and
// asserts truncation proceeds despite a floor covering the content — the
// laggard is dropped to snapshot catch-up instead of pinning the WAL
// without bound.
func TestWALRetainCapOverridesFloor(t *testing.T) {
	s, _ := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	crashWorkload(t, s, 5)

	first, _ := s.WALEpochRange()
	s.SetWALRetainFloor(first)

	// Under the default (large) cap the floor wins.
	if ok, err := s.wal.ResetIf(s.wal.Size(), nil); err != nil || ok {
		t.Fatalf("truncate under cap: ok=%v err=%v, want refused", ok, err)
	}
	if s.WALSize() == 0 {
		t.Fatal("WAL truncated while the floor was within the cap")
	}

	// With the cap below the log size, the floor is overridden.
	s.SetWALRetainCap(1)
	if ok, err := s.wal.ResetIf(s.wal.Size(), nil); err != nil || !ok {
		t.Fatalf("truncate past cap: ok=%v err=%v, want accepted", ok, err)
	}
	if s.WALSize() != 0 {
		t.Fatal("WAL non-empty after a cap-overridden truncate")
	}
}

// TestLogCommitContentEpochs asserts the single-batch append path derives
// the batch's epoch from its stamped meta page, keeping the log's
// content-epoch range accurate for the retain floor.
func TestLogCommitContentEpochs(t *testing.T) {
	s, _ := openTempStore(t)
	var roots [NumRoots]PageID
	batch := []DirtyPage{{ID: 0, Data: metaImage(7, roots)}}
	if err := s.wal.LogCommit(batch); err != nil {
		t.Fatal(err)
	}
	if first, last := s.wal.ContentEpochs(); first != 7 || last != 7 {
		t.Fatalf("ContentEpochs after LogCommit = [%d, %d], want [7, 7]", first, last)
	}

	// A second, newer batch extends only the upper bound.
	batch2 := []DirtyPage{{ID: 0, Data: metaImage(9, roots)}}
	if err := s.wal.LogCommit(batch2); err != nil {
		t.Fatal(err)
	}
	if first, last := s.wal.ContentEpochs(); first != 7 || last != 9 {
		t.Fatalf("ContentEpochs after second LogCommit = [%d, %d], want [7, 9]", first, last)
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
