package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
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

// verifyStore asserts the store holds exactly the given committed state,
// and that every page is reachable or listed, with no reclaim step (see
// ReclaimUnreachable): the crash leaked nothing.
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
	if re.meta.incomplete {
		t.Fatal("a version-4 file reopened with an incomplete list")
	}
	if n, err := account(re); err != nil || n != 0 {
		t.Fatalf("post-recovery page accounting: %d pages unaccounted, %v", n, err)
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
	if err := s.pager.writePages(pages[:len(pages)/2]); err != nil {
		t.Fatal(err)
	}
	if err := s.pager.sync(); err != nil {
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
	if err := s.pager.writePages(pages); err != nil {
		t.Fatal(err)
	}
	if err := s.pager.sync(); err != nil {
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
	verifyRecovered(t, crashSnapshot(t, path), epoch+1, want)
}

// syncHookPager runs onSync, once, before the first page-file sync.
type syncHookPager struct {
	pageFile
	onSync func()
}

func (p *syncHookPager) sync() error {
	if f := p.onSync; f != nil {
		p.onSync = nil
		f()
	}
	return p.pageFile.sync()
}

// TestCrashMatrixCommitDuringCheckpoint lands a commit after a checkpoint
// pass has sampled the WAL's size, while it writes back. The pass must
// write that commit back too before it resets the log, so a crash right
// after the reset still recovers it.
func TestCrashMatrixCommitDuringCheckpoint(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s, 3)
	s.pager = &syncHookPager{pageFile: s.pager, onSync: func() {
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

// bigCommit puts n keys prefix0000.. whose values spill to overflow pages
// (about four pages a key) and commits them, so a few hundred keys make a
// batch several times walBufSize. It returns the keys and the commit error.
func bigCommit(t *testing.T, s *Store, prefix string, n int) (map[string]string, error) {
	t.Helper()
	tree := OpenBTree(s, s.Root(0))
	keys := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s%04d", prefix, i)
		v := strings.Repeat(k, 4*PageSize/len(k))
		if err := tree.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		keys[k] = v
	}
	s.SetRoot(0, tree.Root())
	return keys, s.Commit()
}

// TestCrashMatrixTornGroupOverStaleFrames commits a batch several times
// walBufSize into a fresh generation laid over a longer, older one, and
// records the writes appendGroup made of it. The log then holds exactly the
// reference encoding of the batch. Replaying the crash copy taken before
// the batch with its writes cut at every boundary between two of them (and
// one byte short of the last) recovers the last acknowledged epoch; with
// every write, the whole batch replays.
func TestCrashMatrixTornGroupOverStaleFrames(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	want := crashWorkload(t, s, 3)
	if _, err := bigCommit(t, s, "old", 300); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tree := OpenBTree(s, s.Root(0))
	for i := 0; i < 300; i++ {
		if _, err := tree.Delete([]byte(fmt.Sprintf("old%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(0, tree.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	epoch := s.MVCC().Epoch
	copyPath := crashSnapshot(t, path)

	var logged [][]DirtyPage
	s.SetCommitHook(func(b ReplBatch) { logged = append(logged, b.Pages) })
	rec := &faultFile{}
	injectWALFaults(s, rec)
	added, err := bigCommit(t, s, "new", 150)
	if err != nil {
		t.Fatal(err)
	}

	log, err := os.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 {
		t.Fatalf("%d batches logged, want 1", len(logged))
	}
	ref := appendWALBatch(nil, walSeed(s.wal.gen), logged[0])
	if got := log[walHeaderSize : walHeaderSize+s.WALSize()]; !bytes.Equal(got, ref) {
		t.Fatalf("logged %d bytes differ from the %d-byte reference encoding", len(got), len(ref))
	}
	if len(log) <= walHeaderSize+len(ref) {
		t.Fatal("stage mis-setup: no stale frames beyond the batch")
	}
	if len(rec.writes) < 3 {
		t.Fatalf("a %d-byte batch took %d writes, want >= 3", len(ref), len(rec.writes))
	}
	at := int64(walHeaderSize)
	for i, w := range rec.writes {
		if w.off != at || len(w.data) > walBufSize+walPageFrame || (i < len(rec.writes)-1 && len(w.data) < walBufSize) {
			t.Fatalf("write %d: %d bytes at %d, want %d..%d bytes at %d", i, len(w.data), w.off, walBufSize, walBufSize+walPageFrame, at)
		}
		at += int64(len(w.data))
	}

	replay := func(writes []walWrite, cut int) string {
		t.Helper()
		p := crashSnapshot(t, copyPath)
		f, err := os.OpenFile(p+".wal", os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i, w := range writes {
			if i == len(writes)-1 {
				w.data = w.data[:len(w.data)-cut]
			}
			if _, err := f.WriteAt(w.data, w.off); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	for k := 1; k < len(rec.writes); k++ {
		verifyRecovered(t, replay(rec.writes[:k], 0), epoch, want)
	}
	verifyRecovered(t, replay(rec.writes, 1), epoch, want)
	for k, v := range added {
		want[k] = v
	}
	verifyRecovered(t, replay(rec.writes, 0), epoch+1, want)
}

// errInjected is the failure a faultFile injects.
var errInjected = errors.New("injected wal failure")

// walWrite is one WriteAt a faultFile passed through.
type walWrite struct {
	off  int64
	data []byte
}

// faultFile stands in front of a WAL's file. It records every write it
// passes through, fails the failWrite-th WriteAt or the failSync-th Sync
// (counting from 1; 0 fails none), and runs onSync before each Sync. The
// WAL calls it under its mutex.
type faultFile struct {
	walFile
	failWrite, failSync int
	onSync              func()
	writes              []walWrite
	syncs               int
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if len(f.writes)+1 == f.failWrite {
		return 0, errInjected
	}
	f.writes = append(f.writes, walWrite{off: off, data: bytes.Clone(p)})
	return f.walFile.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	if f.onSync != nil {
		f.onSync()
	}
	if f.syncs++; f.syncs == f.failSync {
		return errInjected
	}
	return f.walFile.Sync()
}

// injectWALFaults puts f in front of the store's WAL file.
func injectWALFaults(s *Store, f *faultFile) {
	s.wal.mu.Lock()
	f.walFile, s.wal.f = s.wal.f, f
	s.wal.mu.Unlock()
}

// TestCrashMatrixFailedFsyncPoisons fails a commit's WAL write or fsync and
// commits again. The failed group's frames may lie at the log's tail, and
// its epoch's images were never logged durably, so the WAL must refuse
// every later append and reset: the next commit fails, and reads keep
// serving the last acknowledged epoch.
//
// Schedule: 3 commits with checkpoints off; 400 keys a0000..a0399 committed
// with the WAL fsync failing (the commit returns the error); b0000
// committed; crash-copy; reopen. Before a failure poisoned the WAL, the
// second commit returned nil for epoch 5, and the reopened store
// recovered it with "page 2 key 0 above range": epoch 5's group had
// overwritten epoch 4's frames and marked epoch 4's images durable. The
// second cell fails the second write of a group several writes long, and
// the third a group's fsync while another commit waits for that group's
// leader.
func TestCrashMatrixFailedFsyncPoisons(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faultFile
		big   bool
	}{
		{"fsync", faultFile{failSync: 1}, false},
		{"second write of a group", faultFile{failWrite: 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, path := openTempStore(t)
			s.SetCheckpointPolicy(1<<40, time.Hour)
			want := crashWorkload(t, s, 3)
			epoch := s.MVCC().Epoch
			fault := tc.fault
			injectWALFaults(s, &fault)

			var failed map[string]string
			var err error
			if tc.big {
				failed, err = bigCommit(t, s, "a", 150)
			} else {
				failed = make(map[string]string)
				tree := OpenBTree(s, s.Root(0))
				for i := 0; i < 400; i++ {
					k := fmt.Sprintf("a%04d", i)
					if err := tree.Put([]byte(k), []byte("v")); err != nil {
						t.Fatal(err)
					}
					failed[k] = "v"
				}
				s.SetRoot(0, tree.Root())
				err = s.Commit()
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("commit over a failing WAL: %v, want the injected failure", err)
			}

			tree := OpenBTree(s, s.Root(0))
			if err := tree.Put([]byte("b0000"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			s.SetRoot(0, tree.Root())
			if err := s.Commit(); !errors.Is(err, errInjected) {
				t.Fatalf("commit after a failed WAL append: %v, want the first failure", err)
			}
			if err := s.Checkpoint(); !errors.Is(err, errInjected) {
				t.Fatalf("checkpoint after a failed WAL append: %v, want the first failure", err)
			}
			if got := s.PublishedEpoch(); got != epoch {
				t.Fatalf("published epoch %d after failed commits, want %d", got, epoch)
			}
			sn := s.Snapshot()
			if v, ok, err := OpenBTree(s, sn.Root(0)).Get([]byte("c00-k00")); err != nil || !ok || string(v) != want["c00-k00"] {
				t.Fatalf("read of epoch %d after failed commits: %q ok=%v err=%v", epoch, v, ok, err)
			}
			sn.Close()

			// The fsync cell's frames were written before its sync failed, so
			// the crash copy may recover them, whole; never b0000.
			re, err := Open(crashSnapshot(t, path))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.MVCC().Epoch; got == epoch+1 && !tc.big {
				for k, v := range failed {
					want[k] = v
				}
				epoch++
			}
			verifyStore(t, re, epoch, want)
			if _, ok, err := OpenBTree(re, re.Root(0)).Get([]byte("b0000")); err != nil || ok {
				t.Fatalf("b0000 recovered (ok=%v err=%v) from a commit that failed", ok, err)
			}
		})
	}
	t.Run("parked waiter", parkedWaiterCell)
}

// parkedWaiterCell parks a commit behind a leader whose WAL fsync then
// fails: the parked waiter must get the failure, not hang.
func parkedWaiterCell(t *testing.T) {
	s, _ := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	crashWorkload(t, s, 1)
	entered, release := make(chan struct{}), make(chan struct{})
	injectWALFaults(s, &faultFile{failSync: 1, onSync: func() {
		select {
		case <-entered:
		default:
			close(entered)
			<-release
		}
	}})
	commit := func(k string) *CommitWaiter {
		tree := OpenBTree(s, s.Root(0))
		if err := tree.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
		s.SetRoot(0, tree.Root())
		return s.CommitAsync()
	}
	errs := make(chan error, 2)
	leader := commit("x1")
	go func() { errs <- leader.Wait() }()
	<-entered
	parked := commit("x2")
	go func() { errs <- parked.Wait() }()
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errInjected) {
				t.Fatalf("waiter %d: %v, want the injected failure", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter hung after its group's WAL fsync failed")
		}
	}
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
	if err := scanLog(s.wal, func(pages []DirtyPage) error {
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
	if ok, err := s1.wal.resetIf(sampled, nil); err != nil || ok {
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

// TestApplyReplicatedRejectsWholeBatch: a replicated batch is accepted
// whole or not at all. The schedule, on a fresh replica at epoch e: a batch
// of page 3 and a meta page claiming epoch e+5, applied as epoch e+1, is
// refused; then a batch of the meta page alone for e+1 is accepted. The
// refused batch's page 3 must not ride along in e+1's WAL record, nor be
// what page 3 reads as. Installing pages while validating them left both.
func TestApplyReplicatedRejectsWholeBatch(t *testing.T) {
	s, err := OpenReplica(filepath.Join(t.TempDir(), "replica.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var logged [][]PageID
	s.SetCommitHook(func(b ReplBatch) {
		var ids []PageID
		for _, p := range b.Pages {
			ids = append(ids, p.ID)
		}
		logged = append(logged, ids)
	})
	e := s.PublishedEpoch()
	metaAt := func(epoch uint64) DirtyPage {
		return DirtyPage{ID: 0, Data: metaImage(epoch, [NumRoots]PageID{})}
	}
	bad := []DirtyPage{{ID: 3, Data: bytes.Repeat([]byte{0xAB}, PageSize)}, metaAt(e + 5)}
	if err := s.ApplyReplicated(e+1, bad); err == nil {
		t.Fatal("a batch whose meta names another epoch was accepted")
	}
	if err := s.ApplyReplicated(e+1, []DirtyPage{metaAt(e + 1)}); err != nil {
		t.Fatalf("the meta page alone for epoch %d: %v", e+1, err)
	}
	if len(logged) != 1 || fmt.Sprint(logged[0]) != "[0]" {
		t.Fatalf("epoch %d logged pages %v, want [[0]]", e+1, logged)
	}
	if img, err := s.ReadPage(3); err == nil && bytes.Equal(img, bad[0].Data) {
		t.Fatal("page 3 reads as the refused batch's image")
	}
	// Every other malformed batch is refused as whole.
	for name, batch := range map[string][]DirtyPage{
		"short page": {{ID: 2, Data: make([]byte, 100)}, metaAt(e + 2)},
		"two metas":  {metaAt(e + 2), metaAt(e + 2)},
		"no meta":    {{ID: 2, Data: make([]byte, PageSize)}},
		"bad meta":   {{ID: 2, Data: make([]byte, PageSize)}, {ID: 0, Data: make([]byte, PageSize)}},
	} {
		if err := s.ApplyReplicated(e+2, batch); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
	}
	if err := s.ApplyReplicated(e+2, []DirtyPage{metaAt(e + 2)}); err != nil {
		t.Fatalf("the meta page alone for epoch %d: %v", e+2, err)
	}
	if len(logged) != 2 || fmt.Sprint(logged[1]) != "[0]" {
		t.Fatalf("epoch %d logged pages %v, want [0]", e+2, logged[1:])
	}
}
