package storage

import (
	"fmt"
	"testing"
	"time"
)

// These tests pin the WAL retain floor — the replication hook into the
// checkpoint pipeline — against the crash matrix's stages: a floor must
// keep every batch a follower still needs in the log without disturbing
// writeback, and a crash with a retained (already checkpointed) WAL must
// recover by an idempotent double replay.

// TestWALRetainFloorBlocksTruncate drives the pipeline to the point where
// a checkpoint would normally truncate and asserts the floor vetoes it —
// then clears the floor and asserts truncation resumes.
func TestWALRetainFloorBlocksTruncate(t *testing.T) {
	s, _ := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	crashWorkload(t, s, 5)

	first, last := s.WALEpochRange()
	if first == 0 || last < first {
		t.Fatalf("WAL epoch range [%d, %d] after workload, want a populated range", first, last)
	}
	s.SetWALRetainFloor(first) // a follower still needs everything

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() == 0 {
		t.Fatal("checkpoint truncated the WAL despite a retain floor covering its content")
	}
	gotFirst, gotLast := s.WALEpochRange()
	if gotFirst != first || gotLast != last {
		t.Fatalf("retained WAL range [%d, %d], want [%d, %d]", gotFirst, gotLast, first, last)
	}

	// The images are checkpointed; only the truncate was held back. Clearing
	// the floor and truncating at the sampled size must now succeed.
	s.SetWALRetainFloor(0)
	if ok, err := s.wal.resetIf(s.wal.Size(), nil); err != nil || !ok {
		t.Fatalf("truncate after clearing floor: ok=%v err=%v", ok, err)
	}
	if s.WALSize() != 0 {
		t.Fatal("WAL non-empty after an accepted truncate")
	}
}

// TestWALRetainFloorAboveContent sets a floor beyond the log's newest
// batch — the follower has consumed everything — and asserts truncation
// is allowed again without clearing the floor.
func TestWALRetainFloorAboveContent(t *testing.T) {
	s, _ := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	crashWorkload(t, s, 3)

	_, last := s.WALEpochRange()
	s.SetWALRetainFloor(last + 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() != 0 {
		t.Fatal("checkpoint kept the WAL although the floor is beyond its content")
	}
}

// TestCrashMatrixRetainedWAL is the crash matrix's stage C under a retain
// floor: the checkpoint fully writes and syncs the page file but the floor
// refuses the truncate, more commits land, and the process dies. Recovery
// replays the checkpointed prefix (an idempotent rewrite) plus the tail,
// and must land on the last committed epoch with the full key set.
func TestCrashMatrixRetainedWAL(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	s.SetWALRetainFloor(1)

	want := crashWorkload(t, s, 5)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() == 0 {
		t.Fatal("stage mis-setup: WAL truncated despite the floor")
	}
	for k, v := range crashWorkload2(t, s, 5, 10) {
		want[k] = v
	}
	epoch := s.MVCC().Epoch
	verifyRecovered(t, crashSnapshot(t, path), epoch, want)
}

// crashWorkload2 extends crashWorkload with a commit-index offset so two
// rounds against the same store produce disjoint key sets.
func crashWorkload2(t *testing.T, s *Store, from, to int) map[string]string {
	t.Helper()
	tree := OpenBTree(s, s.Root(0))
	want := make(map[string]string)
	for c := from; c < to; c++ {
		for i := 0; i < 8; i++ {
			k := fmt.Sprintf("c%02d-k%02d", c, i)
			v := fmt.Sprintf("v%d-%d", c, i)
			if err := tree.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		s.SetRoot(0, tree.Root())
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestScanWALBatchesMeta walks the retained log with ScanWALBatches and
// asserts every batch self-describes via BatchMeta: strictly increasing
// epochs, each batch carrying the meta page, the last batch publishing the
// store's current root — the invariants the publisher's WAL catch-up path
// relies on to filter by a subscriber's resume epoch.
func TestScanWALBatchesMeta(t *testing.T) {
	s, _ := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	crashWorkload(t, s, 6)

	var epochs []uint64
	var lastRoots [NumRoots]PageID
	if err := s.ScanWALBatches(func(pages []DirtyPage) error {
		epoch, roots, ok := BatchMeta(pages)
		if !ok {
			t.Fatalf("batch %d carries no meta page", len(epochs))
		}
		if n := len(epochs); n > 0 && epoch <= epochs[n-1] {
			t.Fatalf("batch epochs not strictly increasing: %d after %d", epoch, epochs[n-1])
		}
		epochs = append(epochs, epoch)
		lastRoots = roots
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 {
		t.Fatal("scan saw no batches")
	}
	if got := epochs[len(epochs)-1]; got != s.MVCC().Epoch {
		t.Fatalf("last scanned epoch %d, want committed epoch %d", got, s.MVCC().Epoch)
	}
	if lastRoots[0] != s.Root(0) {
		t.Fatalf("last scanned root %d, want current root %d", lastRoots[0], s.Root(0))
	}
}
