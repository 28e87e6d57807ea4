package storage

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// TestSnapshotSeesCommittedState pins the core MVCC contract: a snapshot
// reads the state as of its epoch, untouched by later mutations and
// commits, while the writer's own handle sees the working state.
func TestSnapshotSeesCommittedState(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(1, tr.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	sn := s.Snapshot()
	defer sn.Close()
	view := OpenBTree(s, sn.Root(1))

	// Mutate heavily after the snapshot: overwrite everything, delete half,
	// and commit twice.
	for i := 0; i < 500; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(1, tr.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i += 2 {
		if _, err := tr.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(1, tr.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees every key at v1.
	for i := 0; i < 500; i++ {
		v, ok, err := view.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || !ok {
			t.Fatalf("snapshot Get %d: ok=%v err=%v", i, ok, err)
		}
		if string(v) != "v1" {
			t.Fatalf("snapshot Get %d = %q, want v1", i, v)
		}
	}
	if err := view.Check(); err != nil {
		t.Fatalf("snapshot view check: %v", err)
	}
	// The live handle sees the latest state.
	if v, ok, _ := tr.Get([]byte("k00001")); !ok || string(v) != "v2" {
		t.Fatalf("live Get = %q, %v", v, ok)
	}
	if _, ok, _ := tr.Get([]byte("k00000")); ok {
		t.Fatal("live handle still sees deleted key")
	}
}

// TestEpochReclamation verifies that COW-superseded pages are held while a
// snapshot pins them and return to the free list (bounding file growth)
// once the snapshot closes.
func TestEpochReclamation(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(1, tr.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	sn := s.Snapshot()
	for i := 0; i < 2000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(1, tr.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	st := s.MVCC()
	if st.OpenSnapshots != 1 {
		t.Fatalf("open snapshots = %d, want 1", st.OpenSnapshots)
	}
	if st.PendingReclaimPages == 0 {
		t.Fatal("no pages pending reclamation after COW rewrite under a snapshot")
	}
	sn.Close()
	if got := s.MVCC(); got.OpenSnapshots != 0 || got.PendingReclaimPages != 0 {
		t.Fatalf("after close: %+v, want 0 snapshots and 0 pending", got)
	}

	// With reclamation live, repeated rewrite+commit cycles must not grow
	// the page file without bound.
	if err := s.Commit(); err != nil { // flush the free-list updates
		t.Fatal(err)
	}
	before := s.PageCount()
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 2000; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("c%d", cycle))); err != nil {
				t.Fatal(err)
			}
		}
		s.SetRoot(1, tr.Root())
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	after := s.PageCount()
	if after > before+before/2 {
		t.Fatalf("page file grew from %d to %d pages across rewrite cycles: reclamation not reusing pages", before, after)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotReadsDuringWriterRace runs snapshot readers fully overlapped
// with a writer that keeps rewriting and committing. Run with -race. Each
// reader must observe its pinned state exactly: all n keys at the value of
// some single committed generation.
func TestSnapshotReadsDuringWriterRace(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 800
	put := func(gen int) {
		for i := 0; i < n; i++ {
			if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("g%03d", gen))); err != nil {
				t.Error(err)
				return
			}
		}
		s.SetRoot(1, tr.Root())
		if err := s.Commit(); err != nil {
			t.Error(err)
		}
	}
	put(0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for gen := 1; gen <= 30; gen++ {
			put(gen)
		}
		close(stop)
	}()
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				view := OpenBTree(s, sn.Root(1))
				var want string
				for i := 0; i < n; i += 97 {
					v, ok, err := view.Get([]byte(fmt.Sprintf("k%05d", i)))
					if err != nil || !ok {
						errs <- fmt.Errorf("reader %d: Get(%d) ok=%v err=%v at epoch %d", g, i, ok, err, sn.Epoch())
						sn.Close()
						return
					}
					if want == "" {
						want = string(v)
					} else if string(v) != want {
						errs <- fmt.Errorf("reader %d: torn snapshot at epoch %d: %q vs %q", g, sn.Epoch(), v, want)
						sn.Close()
						return
					}
				}
				sn.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryLandsOnLastPublishedRoot simulates a kill after a COW
// commit while a snapshot reader was still active: reopening must land on
// the root set and epoch of the last published commit, with the tree
// structurally intact.
func TestCrashRecoveryLandsOnLastPublishedRoot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(1, tr.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	epoch1 := s.MVCC().Epoch

	// An active reader pins the first epoch while the writer COWs a second
	// commit on top.
	sn := s.Snapshot()
	for i := 0; i < 300; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(1, tr.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	epoch2 := s.MVCC().Epoch
	if epoch2 <= epoch1 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch1, epoch2)
	}
	// The old state is still fully readable through the snapshot (its pages
	// are retired, not reclaimed, while the pin is live).
	view := OpenBTree(s, sn.Root(1))
	if v, ok, _ := view.Get([]byte("k00000")); !ok || string(v) != "old" {
		t.Fatalf("snapshot lost its state before crash: %q %v", v, ok)
	}

	// Kill: abandon the handle with the snapshot still open — no Close, no
	// final commit, no snapshot release.
	s.pager.Close()
	if s.wal != nil {
		s.wal.Close()
	}
	s.closed.Store(true)

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s2.Close()
	if got := s2.MVCC().Epoch; got != epoch2 {
		t.Fatalf("recovered epoch %d, want last published %d", got, epoch2)
	}
	tr2 := OpenBTree(s2, s2.Root(1))
	if err := tr2.Check(); err != nil {
		t.Fatalf("recovered tree fails check: %v", err)
	}
	for i := 0; i < 300; i++ {
		v, ok, err := tr2.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || !ok || string(v) != "new" {
			t.Fatalf("recovered Get(%d) = %q, %v, %v; want new", i, v, ok, err)
		}
	}
}

// TestCrashBetweenWALAndPageFile verifies recovery picks up a commit whose
// records reached the WAL but not yet the page file — the epoch stamped in
// the WAL's meta-page image must win.
func TestCrashBetweenWALAndPageFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.SetRoot(1, tr.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	epoch1 := s.MVCC().Epoch
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-craft the next commit directly in the WAL: a new meta image with
	// a bumped epoch, as a commit would have logged before the page file
	// was updated.
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m := s.meta
	m.epoch = epoch1 + 5
	img := make([]byte, PageSize)
	m.encode(img)
	if err := s.wal.appendGroup([][]DirtyPage{{{ID: 0, Data: img}}}, nil); err != nil {
		t.Fatal(err)
	}
	s.pager.Close()
	s.wal.Close()
	s.closed.Store(true)

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.MVCC().Epoch; got != epoch1+5 {
		t.Fatalf("WAL-recovered epoch %d, want %d", got, epoch1+5)
	}
}
