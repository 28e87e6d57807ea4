package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// This file is the storage-level crash matrix for the durability pipeline:
// commit -> WAL fsync -> [checkpoint writeback -> WAL reset]. A "crash"
// copies the page file and WAL to a fresh directory while the store is
// still open (the images on disk at that instant are exactly what a kill
// would leave) and reopens the copy. Recovery must land on the last
// group-committed epoch at every stage:
//
//	stage A: after the WAL fsync, before any checkpoint — the page file
//	         is arbitrarily stale; everything lives in the WAL tail.
//	stage B: mid-checkpoint — half the captured images written and synced,
//	         WAL not reset; replay must repair the mixed page file.
//	stage C: checkpoint fully written and synced but killed before the WAL
//	         reset; replay is a no-op rewrite of identical images.
//	stage D: after a reset — the new generation is shorter than the old
//	         one, whose frames still lie beyond its tail and must not
//	         replay.
//
// The recycled log's own cells follow stage D: a torn append over stale
// frames, a torn batch that ends exactly where an older generation's
// commit frame begins, a log in the format before generations, and a
// reset attempted by a handle whose path another handle has reopened.
//
// The facade-level matrix (crash_matrix_test.go at the repo root) runs the
// same A/C stages across shard layouts.

// crashSnapshot copies the page file and WAL as a crash would leave them.
func crashSnapshot(t *testing.T, path string) string {
	t.Helper()
	dir := t.TempDir()
	copyTo := filepath.Join(dir, "copy.db")
	for _, suffix := range []string{"", ".wal"} {
		data, err := os.ReadFile(path + suffix)
		if err != nil {
			if suffix == ".wal" && os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(copyTo+suffix, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return copyTo
}

// crashWorkload commits `commits` transactions and returns the expected
// key set. Checkpoints are disabled by policy so the caller controls
// exactly how far the pipeline ran before the crash.
func crashWorkload(t *testing.T, s *Store, commits int) map[string]string {
	t.Helper()
	tree, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	want := make(map[string]string)
	for c := 0; c < commits; c++ {
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

// verifyRecovered opens the copied files and asserts the recovered store
// holds exactly the last committed state.
func verifyRecovered(t *testing.T, path string, wantEpoch uint64, want map[string]string) {
	t.Helper()
	re, err := Open(path)
	if err != nil {
		t.Fatalf("reopening crash copy: %v", err)
	}
	defer re.Close()
	verifyStore(t, re, wantEpoch, want)
}

// verifyStore asserts the store holds exactly the given committed state.
func verifyStore(t *testing.T, re *Store, wantEpoch uint64, want map[string]string) {
	t.Helper()
	if got := re.MVCC().Epoch; got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
	tree := OpenBTree(re, re.Root(0))
	for k, v := range want {
		got, ok, err := tree.Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("key %s lost in crash (ok=%v err=%v)", k, ok, err)
		}
		if string(got) != v {
			t.Fatalf("key %s recovered as %q, want %q", k, got, v)
		}
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("post-recovery tree integrity: %v", err)
	}
}

// TestCrashMatrixAfterWALFsync kills after the commits' WAL fsyncs with no
// checkpoint at all: the page file still holds the pre-workload state and
// recovery must rebuild everything from the WAL.
func TestCrashMatrixAfterWALFsync(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour) // no background/backpressure flushes
	want := crashWorkload(t, s, 10)
	epoch := s.MVCC().Epoch
	if s.CheckpointBacklog() == 0 {
		t.Fatal("backlog empty — a checkpoint ran and the stage is not what it claims")
	}
	verifyRecovered(t, crashSnapshot(t, path), epoch, want)
}

// TestCrashMatrixMidCheckpoint kills halfway through a checkpoint's page
// writes: half the captured images (sorted by page id) are written and
// synced, the rest are not, and the WAL is not truncated. The page file is
// a mix of old and new images; replay must repair it completely.
func TestCrashMatrixMidCheckpoint(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s, 10)
	epoch := s.MVCC().Epoch

	// Simulate the first half of runCheckpoint by hand: capture the
	// WAL-durable images, write only half of them, sync, and crash before
	// the rest (and before the WAL truncate).
	pages := s.wb.capture()
	if len(pages) < 2 {
		t.Fatalf("captured %d pages, need >= 2 for a meaningful split", len(pages))
	}
	if err := s.pager.WritePages(pages[:len(pages)/2]); err != nil {
		t.Fatal(err)
	}
	if err := s.pager.Sync(); err != nil {
		t.Fatal(err)
	}
	copyPath := crashSnapshot(t, path)
	s.wb.fail() // hand the capture back so the deferred Close stays sound
	verifyRecovered(t, copyPath, epoch, want)
}

// TestCrashMatrixAfterCheckpointBeforeTruncate kills after the checkpoint
// has fully written and synced the page file but before the WAL truncate:
// replay rewrites identical images and must be a harmless no-op.
func TestCrashMatrixAfterCheckpointBeforeTruncate(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s, 10)
	epoch := s.MVCC().Epoch

	pages := s.wb.capture()
	if len(pages) == 0 {
		t.Fatal("nothing captured — workload produced no durable backlog")
	}
	if err := s.pager.WritePages(pages); err != nil {
		t.Fatal(err)
	}
	if err := s.pager.Sync(); err != nil {
		t.Fatal(err)
	}
	s.wb.finish()
	// Crash here: WAL still holds every batch the checkpoint just wrote.
	verifyRecovered(t, crashSnapshot(t, path), epoch, want)
}

// TestCrashMatrixCheckpointDuringPreparedCommit checkpoints while a commit
// that rewrites the same pages is prepared but not yet in the WAL — what
// crimsond does whenever one request commits two shards and waits on them
// in turn. The prepared images must not hide the durable ones beneath them
// from the checkpoint: the checkpoint drops the log, so the page file must
// then hold every acknowledged commit.
//
// Schedule: 3 commits with checkpoints off; CommitAsync a 4th on the same
// tree without Wait; Checkpoint; crash-copy; reopen. Before the writeback
// table kept the durable image under the prepared one, this recovered
// epoch 0 with 3 acknowledged.
func TestCrashMatrixCheckpointDuringPreparedCommit(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s, 3)
	epoch := s.MVCC().Epoch

	tree := OpenBTree(s, s.Root(0))
	if err := tree.Put([]byte("c00-k00"), []byte("prepared")); err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	w := s.CommitAsync()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, crashSnapshot(t, path), epoch, want)

	// The prepared commit still lands, and a crash after it recovers it.
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	want["c00-k00"] = "prepared"
	verifyRecovered(t, crashSnapshot(t, path), w.Epoch(), want)
}

// syncHookPager runs onSync, once, before the first page-file sync.
type syncHookPager struct {
	Pager
	onSync func()
}

func (p *syncHookPager) Sync() error {
	if f := p.onSync; f != nil {
		p.onSync = nil
		f()
	}
	return p.Pager.Sync()
}

// TestCrashMatrixCommitDuringCheckpoint lands a commit after a checkpoint
// pass has sampled the WAL's size, while it writes back. The pass must
// write that commit back too before it resets the log, so a crash right
// after the reset still recovers it.
func TestCrashMatrixCommitDuringCheckpoint(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s, 3)
	s.pager = &syncHookPager{Pager: s.pager, onSync: func() {
		for k, v := range crashWorkload2(t, s, 3, 4) {
			want[k] = v
		}
	}}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("WAL size %d after a pass a commit landed in, want 0 (reset)", got)
	}
	verifyRecovered(t, crashSnapshot(t, path), s.MVCC().Epoch, want)
}

// TestCrashMatrixAfterReset is stage D: a long generation is checkpointed
// and reset, then two small commits start the next one, so the old
// generation's frames lie beyond the new tail. Recovery replays the two
// commits and nothing beyond them.
func TestCrashMatrixAfterReset(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s, 10)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("WAL size %d after the checkpoint, want 0", got)
	}
	for k, v := range crashWorkload2(t, s, 10, 12) {
		want[k] = v
	}
	if st, err := os.Stat(path + ".wal"); err != nil || st.Size() <= walHeaderSize+s.WALSize() {
		t.Fatalf("stage mis-setup: no stale frames beyond the new tail (err=%v)", err)
	}
	verifyRecovered(t, crashSnapshot(t, path), s.MVCC().Epoch, want)
}

// junkBatch is a batch that must never replay: the meta page stamped with
// epoch, and pages 1..n-1 overwritten with filler.
func junkBatch(s *Store, epoch uint64, n int) []DirtyPage {
	m := s.meta
	m.epoch = epoch
	meta := make([]byte, PageSize)
	m.encode(meta)
	pages := []DirtyPage{{ID: 0, Data: meta}}
	for id := PageID(1); id < PageID(n); id++ {
		pages = append(pages, DirtyPage{ID: id, Data: bytes.Repeat([]byte{0xa5}, PageSize)})
	}
	return pages
}

// walPageFrame is the size of one page frame.
const walPageFrame = 16 + PageSize + 4

// TestCrashMatrixTornAppendOverStaleFrames tears the next append of a
// fresh generation — inside a frame and at frame boundaries, short of its
// commit frame — over the frames of a longer, older generation. Recovery
// lands on the last acknowledged epoch every time. The whole batch,
// written the same way, does replay, so the cuts are at the real tail.
func TestCrashMatrixTornAppendOverStaleFrames(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s, 10)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k, v := range crashWorkload2(t, s, 10, 11) {
		want[k] = v
	}
	epoch := s.MVCC().Epoch
	tail := walHeaderSize + s.WALSize()
	seed := walSeed(s.wal.gen)

	writeAt := func(path string, b []byte, off int64) {
		t.Helper()
		f, err := os.OpenFile(path+".wal", os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
	}
	torn := appendWALBatch(nil, seed, junkBatch(s, epoch+1, 5))
	for _, cut := range []int{1, 12, 16, 100, walPageFrame, walPageFrame + 7, 3 * walPageFrame, 5 * walPageFrame, len(torn) - 1} {
		copyPath := crashSnapshot(t, path)
		writeAt(copyPath, torn[:cut], tail)
		verifyRecovered(t, copyPath, epoch, want)
	}

	copyPath := crashSnapshot(t, path)
	writeAt(copyPath, appendWALBatch(nil, seed, junkBatch(s, epoch+1, 1)), tail)
	verifyRecovered(t, copyPath, epoch+1, want)
}

// TestCrashMatrixAlignedStaleCommitFrame tears a batch of five page frames
// right before its commit frame, over an older generation's batch of five:
// the older commit frame sits exactly where the torn batch's would, so
// only the generation's CRC seed tells the two apart. Nothing may replay.
func TestCrashMatrixAlignedStaleCommitFrame(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s, 3)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	epoch := s.MVCC().Epoch
	copyPath := crashSnapshot(t, path)

	// Generation g logged a batch of five; the reset to g+1 rewrote the
	// header, and g+1's first append tore just before its commit frame.
	g := s.wal.gen
	log := appendWALBatch(appendWALHeader(nil, g), walSeed(g), junkBatch(s, epoch+3, 5))
	copy(log, appendWALHeader(nil, g+1))
	copy(log[walHeaderSize:], appendWALBatch(nil, walSeed(g+1), junkBatch(s, epoch+7, 5))[:5*walPageFrame])
	if kind := binary.LittleEndian.Uint32(log[walHeaderSize+5*walPageFrame:]); kind != walFrameCommit {
		t.Fatalf("stage mis-setup: no older commit frame right after the torn batch")
	}
	if err := os.WriteFile(copyPath+".wal", log, 0o644); err != nil {
		t.Fatal(err)
	}
	verifyRecovered(t, copyPath, epoch, want)
}

// appendUnsaltedBatch encodes a batch in the format before generations:
// frames from wherever the log ends, CRCs unseeded.
func appendUnsaltedBatch(buf []byte, pages []DirtyPage) []byte {
	for _, p := range pages {
		start := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, walFramePage)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Data)))
		buf = append(buf, p.Data...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, walFrameCommit)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pages)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// TestCrashMatrixHeaderlessLog crashes with a log in the format before
// generations — no header, frames from offset 0, unsalted CRCs, a torn
// tail — and reopens: the log replays, is freed once and gets a header,
// and from then on is recycled like any other.
func TestCrashMatrixHeaderlessLog(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s, 5)
	epoch := s.MVCC().Epoch
	var old []byte
	if err := s.ScanWALBatches(func(pages []DirtyPage) error {
		old = appendUnsaltedBatch(old, pages)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	old = append(old, appendUnsaltedBatch(nil, junkBatch(s, epoch+1, 2))[:walPageFrame+50]...)
	copyPath := crashSnapshot(t, path)
	if err := os.WriteFile(copyPath+".wal", old, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(copyPath)
	if err != nil {
		t.Fatalf("reopening a headerless log: %v", err)
	}
	defer re.Close()
	verifyStore(t, re, epoch, want)
	if _, ok := readWALHeader(re.wal.f); !ok {
		t.Fatal("recovered log has no header")
	}
	if st, err := os.Stat(copyPath + ".wal"); err != nil || st.Size() != walHeaderSize {
		t.Fatalf("recovered log not freed down to its header (err=%v)", err)
	}
	for k, v := range crashWorkload2(t, re, 5, 7) {
		want[k] = v
	}
	verifyRecovered(t, crashSnapshot(t, copyPath), re.MVCC().Epoch, want)
}

// TestCrashMatrixAbandonedHandleReset reopens a path while the first handle
// is still open — a test that abandons a store does this — and has the
// first handle attempt a reset. The file's generation is no longer the
// one it appends, so it must leave the log, the second handle's commits,
// byte for byte alone.
func TestCrashMatrixAbandonedHandleReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	s1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s1.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s1, 3)
	sampled := s1.wal.Size()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.SetCheckpointPolicy(1<<40, time.Hour)
	for k, v := range crashWorkload2(t, s2, 3, 4) {
		want[k] = v
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k, v := range crashWorkload2(t, s2, 4, 6) {
		want[k] = v
	}

	before, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s1.wal.ResetIf(sampled, nil); err != nil || ok {
		t.Fatalf("abandoned handle's reset: ok=%v err=%v, want refused", ok, err)
	}
	if after, err := os.ReadFile(path + ".wal"); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("abandoned handle's reset changed the log (err=%v)", err)
	}
	s1.stopCheckpointer()
	s1.pager.Close()
	s1.wal.Close()
	s1.closed.Store(true)
	verifyRecovered(t, crashSnapshot(t, path), s2.MVCC().Epoch, want)
}
