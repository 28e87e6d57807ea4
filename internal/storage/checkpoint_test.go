package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCheckpointDrainsBacklogAndTruncatesWAL pins the pipeline lifecycle:
// after a commit the WAL holds the batch and the writeback table holds the
// images; a synchronous Checkpoint writes them to the page file, empties
// the backlog, and truncates the WAL.
func TestCheckpointDrainsBacklogAndTruncatesWAL(t *testing.T) {
	s, _ := openTempStore(t)
	tree, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	for i := 0; i < 50; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(0, tree.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.CheckpointBacklog() == 0 {
		t.Fatal("no writeback backlog after commit — images were not staged")
	}
	if s.WALSize() == 0 {
		t.Fatal("empty WAL after commit — batch was not appended")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.CheckpointBacklog(); got != 0 {
		t.Fatalf("backlog %d after synchronous checkpoint, want 0", got)
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("WAL size %d after checkpoint, want 0 (not truncated)", got)
	}
	for i := 0; i < 50; i++ {
		v, ok, err := tree.Get([]byte(fmt.Sprintf("key-%03d", i)))
		if err != nil || !ok {
			t.Fatalf("key-%03d lost after checkpoint (ok=%v err=%v)", i, ok, err)
		}
		if !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 100)) {
			t.Fatalf("key-%03d value corrupted after checkpoint", i)
		}
	}
}

// TestCheckpointPolicyRearmsTimer: a new checkpoint interval takes effect
// at once. The checkpointer's timer was armed with the 1 s default at
// open; setting 50 ms must re-arm it, so a commit's backlog drains within
// a few intervals, long before the default would have fired.
func TestCheckpointPolicyRearmsTimer(t *testing.T) {
	s, _ := openTempStore(t)
	time.Sleep(20 * time.Millisecond) // the checkpointer arms its first timer
	s.SetCheckpointPolicy(0, 50*time.Millisecond)
	tree, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for s.CheckpointBacklog() > 0 {
		if time.Since(start) > 500*time.Millisecond {
			t.Fatalf("backlog of %d B not checkpointed 500 ms after a commit at a 50 ms interval", s.CheckpointBacklog())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckpointSkipsUndurableEpochs pins the torn-page-safety invariant:
// the checkpointer only writes images whose WAL batch has fsynced, so a
// torn page-file write is always repairable by WAL replay. A prepared but
// not yet flushed commit must survive a checkpoint untouched.
func TestCheckpointSkipsUndurableEpochs(t *testing.T) {
	s, _ := openTempStore(t)
	tree, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	if err := tree.Put([]byte("durable"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Prepare a second transaction but do not Wait: its WAL batch has not
	// fsynced, so its images must not be checkpointed.
	if err := tree.Put([]byte("pending"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	w := s.CommitAsync()

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.CheckpointBacklog() == 0 {
		t.Fatal("checkpoint consumed images of a commit whose WAL fsync has not landed")
	}

	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.CheckpointBacklog(); got != 0 {
		t.Fatalf("backlog %d after the batch became durable and checkpointed, want 0", got)
	}
}

// TestCheckpointBackpressure pins the hard cap: a committer whose backlog
// exceeds backpressureFactor times the byte threshold runs an inline
// synchronous checkpoint during Wait instead of letting the backlog grow
// without bound.
func TestCheckpointBackpressure(t *testing.T) {
	s, _ := openTempStore(t)
	// Tiny threshold, effectively-disabled timer: only backpressure flushes.
	s.SetCheckpointPolicy(PageSize, time.Hour)
	runsBefore := obs.Engine.Snapshot()["checkpoint_runs"]

	tree, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	sawInline := false
	for i := 0; i < 40 && !sawInline; i++ {
		if err := tree.Put([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
		s.SetRoot(0, tree.Root())
		w := s.CommitAsync()
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
		sawInline = w.CheckpointTime() > 0
	}
	if !sawInline {
		t.Fatal("no commit ran an inline backpressure checkpoint despite a 4-page cap")
	}
	if d := obs.Engine.Snapshot()["checkpoint_runs"] - runsBefore; d == 0 {
		t.Fatal("checkpoint_runs did not advance")
	}
	if got := s.CheckpointBacklog(); got > backpressureFactor*PageSize {
		t.Fatalf("backlog %d above the hard cap after backpressure", got)
	}
}

// TestWALBoundedUnderSustainedCommits runs two committers flat out — the
// writer mutex held for the mutation and the prepare, the wait outside it,
// as crimsond does — while the background checkpointer works at a 64 KiB
// threshold. A pass resets the log even when commits land during it, and
// the log growing by 4 × the threshold since the last pass kicks one, so
// the log never holds more than that plus the batch that crossed it.
func TestWALBoundedUnderSustainedCommits(t *testing.T) {
	s, _ := openTempStore(t)
	const thresh = 64 << 10
	s.SetCheckpointPolicy(thresh, 0)
	var largestCommit atomic.Int64 // bytes one commit appends to the log
	s.SetCommitHook(func(b ReplBatch) {
		n := int64(len(b.Pages)*walPageFrame + 12)
		for cur := largestCommit.Load(); n > cur && !largestCommit.CompareAndSwap(cur, n); cur = largestCommit.Load() {
		}
	})

	var (
		writer  sync.Mutex
		largest atomic.Int64 // largest WALSize observed
		wg      sync.WaitGroup
		errs    = make(chan error, 2)
	)
	observe := func() {
		n := s.WALSize()
		for cur := largest.Load(); n > cur && !largest.CompareAndSwap(cur, n); cur = largest.Load() {
		}
	}
	for slot := 1; slot <= 2; slot++ {
		writer.Lock()
		tree, err := NewBTree(s)
		if err == nil {
			s.SetRoot(slot, tree.Root())
			err = s.Commit()
		}
		writer.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < 200; c++ {
				writer.Lock()
				for i := 0; i < 4; i++ {
					k := fmt.Sprintf("c%03d-k%d", c, i)
					if err := tree.Put([]byte(k), bytes.Repeat([]byte{byte(c)}, 200)); err != nil {
						writer.Unlock()
						errs <- err
						return
					}
				}
				s.SetRoot(slot, tree.Root())
				w := s.CommitAsync()
				writer.Unlock()
				if err := w.Wait(); err != nil {
					errs <- err
					return
				}
				observe()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// A group batch holds at most one commit per committer.
	bound := backpressureFactor*thresh + 2*largestCommit.Load()
	if got := largest.Load(); got > bound {
		t.Fatalf("WAL reached %d B under sustained commits, bound %d B (4 × %d B + the largest batch)", got, bound, thresh)
	}
	t.Logf("largest WAL %d B, bound %d B", largest.Load(), bound)
}

// TestWALResetKeepsBlocks checkpoints the same commit pattern 20 times: each
// reset leaves the log empty, and after the first cycle the file neither
// shrinks nor gives back blocks — a reset rewrites the header, it does not
// free the log.
func TestWALResetKeepsBlocks(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	tree, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	var size, blocks int64
	for cycle := 0; cycle < 20; cycle++ {
		for c := 0; c < 4; c++ {
			if err := tree.Put([]byte(fmt.Sprintf("k%d", c)), bytes.Repeat([]byte{byte(cycle)}, 512)); err != nil {
				t.Fatal(err)
			}
			s.SetRoot(0, tree.Root())
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := s.WALSize(); got != 0 {
			t.Fatalf("cycle %d: WALSize %d after the checkpoint, want 0", cycle, got)
		}
		fi, err := os.Stat(path + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		st, ok := fi.Sys().(*syscall.Stat_t)
		if !ok {
			t.Skip("no block count on this platform")
		}
		if cycle > 0 && (fi.Size() < size || st.Blocks < blocks) {
			t.Fatalf("cycle %d: WAL file went from %d B / %d blocks to %d B / %d blocks", cycle, size, blocks, fi.Size(), st.Blocks)
		}
		size, blocks = fi.Size(), st.Blocks
	}
	if size <= walHeaderSize {
		t.Fatalf("WAL file is %d B after 20 cycles: the log was freed, not recycled", size)
	}
}

// TestWritePagesCoalesced exercises the coalesced page-file writer
// directly: adjacent runs, gaps, and a run longer than maxCoalescePages
// must all land byte-exact.
func TestWritePagesCoalesced(t *testing.T) {
	dir := t.TempDir()
	pager, err := openFilePager(filepath.Join(dir, "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer pager.Close()

	const n = maxCoalescePages + 70 // forces a run split plus stragglers
	for i := 0; i < n; i++ {
		if _, err := pager.Grow(); err != nil {
			t.Fatal(err)
		}
	}
	page := func(id PageID) []byte {
		buf := make([]byte, PageSize)
		for i := range buf {
			buf[i] = byte(uint64(id)*31 + uint64(i))
		}
		return buf
	}
	// One long adjacent run (0..maxCoalescePages+9), then gapped singles.
	var pages []DirtyPage
	for id := PageID(0); id < maxCoalescePages+10; id++ {
		pages = append(pages, DirtyPage{ID: id, Data: page(id)})
	}
	for id := PageID(maxCoalescePages + 12); id < n; id += 3 {
		pages = append(pages, DirtyPage{ID: id, Data: page(id)})
	}
	if err := pager.writePages(pages); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for _, p := range pages {
		if err := pager.ReadPage(p.ID, buf); err != nil {
			t.Fatalf("read %d: %v", p.ID, err)
		}
		if !bytes.Equal(buf, p.Data) {
			t.Fatalf("page %d corrupted by coalesced write", p.ID)
		}
	}
}

// TestWritebackReadThroughUnderEviction shrinks the buffer pool far below
// the working set so clean frames are evicted constantly, and verifies that
// every pool miss re-reads the newest committed image from the writeback
// table rather than the stale page file (no checkpoint runs during the
// test; the page file never catches up).
func TestWritebackReadThroughUnderEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.db")
	s, err := openFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Keep the background checkpointer out of the picture: the point is to
	// read committed-but-not-checkpointed images through eviction misses.
	s.SetCheckpointPolicy(1<<40, time.Hour)

	tree, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	const rounds, keys = 6, 60
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			val := []byte(fmt.Sprintf("r%d-v%03d", r, i))
			if err := tree.Put([]byte(fmt.Sprintf("key-%03d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		s.SetRoot(0, tree.Root())
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if s.CheckpointBacklog() == 0 {
		t.Fatal("backlog drained — the test is no longer exercising writeback reads")
	}
	for i := 0; i < keys; i++ {
		want := fmt.Sprintf("r%d-v%03d", rounds-1, i)
		v, ok, err := tree.Get([]byte(fmt.Sprintf("key-%03d", i)))
		if err != nil || !ok {
			t.Fatalf("key-%03d: ok=%v err=%v", i, ok, err)
		}
		if string(v) != want {
			t.Fatalf("key-%03d read %q through eviction, want %q (stale page file image)", i, v, want)
		}
	}
}
