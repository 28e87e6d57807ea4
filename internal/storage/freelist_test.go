package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// writeV2File lays out a version-2 page file by hand: the meta page, then
// pages 1..len(links), page i+1 a v2 free-list link page (its next link,
// then zeros) naming links[i].
func writeV2File(t *testing.T, path string, head PageID, links []PageID, clean bool) {
	t.Helper()
	img := encodeV2Meta(head, [NumRoots]PageID{}, 5, clean)
	for _, next := range links {
		page := make([]byte, PageSize)
		binary.LittleEndian.PutUint64(page, uint64(next))
		img = append(img, page...)
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}

// account runs the page accounting of a store whose one tree hangs off
// root 0, against a snapshot of it (see ReclaimUnreachable).
func account(s *Store) (int, error) {
	sn := s.Snapshot()
	defer sn.Close()
	reachable := make([]bool, s.PageCount())
	if root := sn.Root(0); root != 0 {
		if err := OpenBTreeAt(s, root, sn.Epoch()).Pages(func(id PageID) { reachable[id] = true }); err != nil {
			return 0, err
		}
	}
	return s.ReclaimUnreachable(sn, reachable)
}

// TestFreeListCyclicV2Chain: a v2 file whose link chain is a cycle (page 2
// names 3, page 3 names 2). A walk of it used to follow the links forever,
// growing its list without bound; allocation handed the two pages out in
// turn, forever. The accounting and allocation must both fail.
func TestFreeListCyclicV2Chain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cycle.db")
	writeV2File(t, path, 2, []PageID{0, 3, 2}, false)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// No deferred Close: a walk that never returns holds the store mutex.
	done := make(chan error, 1)
	go func() {
		_, err := account(s)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errCorruptPage) {
			t.Fatalf("accounting over a cyclic free chain: %v, want ErrCorruptPage", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("accounting over a cyclic free chain did not return")
	}
	defer s.Close()
	var got []PageID
	for i := 0; i < 3; i++ {
		id, err := s.allocate()
		if err != nil {
			if !errors.Is(err, errCorruptPage) {
				t.Fatalf("allocation %d: %v, want ErrCorruptPage", i, err)
			}
			return
		}
		got = append(got, id)
	}
	t.Fatalf("a cyclic free chain handed out %v", got)
}

// TestFreeListOpensV2LinkChain: a cleanly closed v2 file with five free
// pages chained 3 → 1 → 5 → 2 → 4 opens as it is, accounts for every page
// as listed, hands the five out in chain order, and grows the file only
// after them. It reopens as version 4 with every page accounted.
func TestFreeListOpensV2LinkChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.db")
	writeV2File(t, path, 3, []PageID{5, 4, 1, 0, 2}, true)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := account(s); err != nil || n != 0 {
		t.Fatalf("v2 accounting: %d unaccounted, %v", n, err)
	}
	var got []PageID
	for i := 0; i < 6; i++ {
		id, err := s.allocate()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, id)
	}
	if want := []PageID{3, 1, 5, 2, 4, 6}; !slices.Equal(got, want) {
		t.Fatalf("allocated %v from the v2 chain, want %v", got, want)
	}
	tree, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, tree.Root())
	for _, id := range got {
		if err := s.retire(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n, err := account(s); err != nil || n != 0 {
		t.Fatalf("reopened v4 accounting: %d unaccounted, %v", n, err)
	}
}

// TestFreeListSpillsToTrunks retires 1 500 committed pages — three times
// the inline room — and checks what that costs and that every page comes
// back: the retiring commit lists them, logging the meta page and a
// handful of trunk pages (grown: nothing is reusable yet), never a retired
// page; after a reopen the 1 500 ids and the trunk pages are handed out
// once each before the file grows.
func TestFreeListSpillsToTrunks(t *testing.T) {
	const n = 1500
	path := filepath.Join(t.TempDir(), "spill.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < n; i++ {
		id, err := s.allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.writePage(id, bytes.Repeat([]byte{byte(i)}, PageSize)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := s.retire(id); err != nil {
			t.Fatal(err)
		}
	}
	var logged []PageID
	s.SetCommitHook(func(b ReplBatch) {
		for _, p := range b.Pages {
			logged = append(logged, p.ID)
		}
	})
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.SetCommitHook(nil)
	trunks := 0
	for _, id := range logged {
		if id != 0 {
			trunks++
		}
		if _, found := slices.BinarySearch(ids, id); found {
			t.Fatalf("the retiring commit logged retired page %d", id)
		}
	}
	if len(logged) == 0 || logged[0] != 0 || trunks == 0 || trunks > n/(metaFreeCap/2) {
		t.Fatalf("the retiring commit logged pages %v, want the meta page and at most %d trunks", logged, n/(metaFreeCap/2))
	}
	if leaked, err := account(s); err != nil || leaked != 0 {
		t.Fatalf("accounting: %d unaccounted, %v", leaked, err)
	}
	count := s.PageCount()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got []PageID
	for i := 0; i < n+trunks; i++ {
		id, err := s.allocate()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, id)
	}
	slices.Sort(got)
	if want := slices.Concat(ids, logged[1:]); !slices.Equal(got, want) {
		t.Fatalf("reallocated pages are not the retired ones and the trunks (%d vs %d)", len(got), len(want))
	}
	if s.PageCount() != count {
		t.Fatalf("draining the list grew the file from %d to %d pages", count, s.PageCount())
	}
	if id, err := s.allocate(); err != nil || id != count {
		t.Fatalf("allocation past the list: %d, %v, want %d", id, err, count)
	}
}

// TestFreeListNoBatchCarriesAFreePage runs a churn — trees built, dropped
// and rebuilt, enough to spill the inline ids into trunk pages — and checks
// every commit batch, as the commit hook ships it and as the WAL holds it:
// no batch carries an image of a page on its own meta page's free list,
// unless that page is a trunk of the list.
func TestFreeListNoBatchCarriesAFreePage(t *testing.T) {
	s, _ := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	var shipped [][]DirtyPage
	s.SetCommitHook(func(b ReplBatch) { shipped = append(shipped, b.Pages) })
	value := bytes.Repeat([]byte("v"), 900)
	for round := 0; round < 4; round++ {
		tree, err := NewBTree(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2400; i++ {
			if err := tree.Put([]byte{byte(round), byte(i >> 8), byte(i)}, value); err != nil {
				t.Fatal(err)
			}
			if i%600 == 599 {
				s.SetRoot(0, tree.Root())
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tree.RetireAll(); err != nil {
			t.Fatal(err)
		}
		s.SetRoot(0, 0)
		for i := 0; i < 3; i++ { // the drop, then the free list
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var walBatches [][]DirtyPage
	if err := scanLog(s.wal, func(pages []DirtyPage) error {
		walBatches = append(walBatches, pages)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for name, batches := range map[string][][]DirtyPage{"shipped": shipped, "WAL": walBatches} {
		trunksSeen := checkBatchesCarryNoFreePage(t, name, batches)
		if trunksSeen == 0 {
			t.Fatalf("%s: the churn never spilled into a trunk page; it tests nothing", name)
		}
	}
	if len(walBatches) != len(shipped) {
		t.Fatalf("the WAL holds %d batches, the hook shipped %d", len(walBatches), len(shipped))
	}
}

// checkBatchesCarryNoFreePage replays batches in order (each page's newest
// image kept, so a trunk written by an earlier batch can be read) and
// fails on a batch image of a page its own meta lists as free. It returns
// how many trunk pages the metas' chains held in all.
func checkBatchesCarryNoFreePage(t *testing.T, name string, batches [][]DirtyPage) int {
	t.Helper()
	latest := map[PageID][]byte{}
	trunksSeen := 0
	for i, pages := range batches {
		for _, p := range pages {
			latest[p.ID] = p.Data
		}
		var m meta
		if err := m.decode(latest[0]); err != nil {
			t.Fatalf("%s batch %d: %v", name, i, err)
		}
		free := map[PageID]bool{}
		for _, id := range m.free {
			free[id] = true
		}
		trunk := map[PageID]bool{}
		for id := m.freeHead; id != 0; {
			img, ok := latest[id]
			if !ok || trunk[id] {
				t.Fatalf("%s batch %d: trunk page %d unknown or on the chain twice", name, i, id)
			}
			trunk[id] = true
			trunksSeen++
			for k := uint64(0); k < binary.LittleEndian.Uint64(img[8:]); k++ {
				free[PageID(binary.LittleEndian.Uint64(img[trunkHeader+8*k:]))] = true
			}
			id = PageID(binary.LittleEndian.Uint64(img))
		}
		for _, p := range pages {
			if free[p.ID] {
				t.Fatalf("%s batch %d (epoch %d) carries an image of page %d, which its meta lists as free", name, i, m.epoch, p.ID)
			}
		}
	}
	return trunksSeen
}

// TestFreeListGrownPageSurvivesLostGrowth: a page grown and freed in one
// transaction is on the committed free list but in no WAL batch, so a
// crash can lose the file's growth to it. The meta page's page count
// grows the file back on open: the page is handed out again and commits
// and checkpoints through it.
func TestFreeListGrownPageSurvivesLostGrowth(t *testing.T) {
	s, path := openTempStore(t)
	s.SetCheckpointPolicy(1<<40, time.Hour)
	id, err := s.allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.retire(id); err != nil { // fresh: freed at once, never written
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	copyPath := crashSnapshot(t, path)
	if err := os.Truncate(copyPath, int64(id)*PageSize); err != nil {
		t.Fatal(err)
	}
	re, err := Open(copyPath)
	if err != nil {
		t.Fatalf("reopening with the growth lost: %v", err)
	}
	defer re.Close()
	if re.PageCount() <= id {
		t.Fatalf("reopened with %d pages; free page %d is past the end", re.PageCount(), id)
	}
	got, err := re.allocate()
	if err != nil || got != id {
		t.Fatalf("allocation: %d, %v, want the free page %d", got, err, id)
	}
	if err := re.writePage(got, bytes.Repeat([]byte{7}, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := re.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeListFollowerMatchesPrimaryPageCount: a primary commit whose last
// page was grown and freed in it ships no image of that page, yet the
// follower's file must have it — the same page count, so the follower's
// free list names only its own pages and, once promoted, reuses the page.
func TestFreeListFollowerMatchesPrimaryPageCount(t *testing.T) {
	p, _ := openTempStore(t)
	f, err := OpenReplica(filepath.Join(t.TempDir(), "follower.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var batches []ReplBatch
	p.SetCommitHook(func(b ReplBatch) { batches = append(batches, b) })
	tree, err := NewBTree(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	p.SetRoot(0, tree.Root())
	id, err := p.allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.retire(id); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := f.ApplyReplicated(b.Epoch, b.Pages); err != nil {
			t.Fatal(err)
		}
	}
	if f.PageCount() != p.PageCount() || f.PageCount() <= id {
		t.Fatalf("follower has %d pages, primary %d; freed page %d", f.PageCount(), p.PageCount(), id)
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if got, err := f.allocate(); err != nil || got != id {
		t.Fatalf("promoted follower allocated %d, %v, want the free page %d", got, err, id)
	}
}

// TestCatchUpSnapshotKeepsTrunks: a snapshot catch-up ships its epoch's
// trunk pages, so none may be handed out while it streams. A trunk page
// consumed with no snapshot open is handed out (the file does not grow for
// it), and a catch-up waits for the commit that publishes that; while the
// catch-up's snapshot is open, draining the list retires each consumed
// trunk instead, and every page of the pinned epoch's chain reads as it
// did.
func TestCatchUpSnapshotKeepsTrunks(t *testing.T) {
	s, _ := openTempStore(t)
	var ids []PageID
	for i := 0; i < 1500; i++ {
		id, err := s.allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := s.retire(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	count := s.PageCount()
	// Drain the inline ids and one trunk: its page is handed out.
	for s.handout == 0 {
		if _, err := s.allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if s.PageCount() != count || s.handout != s.PublishedEpoch()+1 {
		t.Fatalf("consuming a trunk: %d pages (was %d), handout epoch %d", s.PageCount(), count, s.handout)
	}
	type catchUp struct {
		sn       *Snap
		metaPage []byte
	}
	got := make(chan catchUp, 1)
	go func() {
		sn, metaPage, _, err := s.CatchUpSnapshot(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- catchUp{sn, metaPage}
	}()
	select {
	case <-got:
		t.Fatal("a catch-up pinned an epoch whose trunk page is handed out")
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	c := <-got
	defer c.sn.Close()
	var m meta
	if err := m.decode(c.metaPage); err != nil || m.freeHead == 0 {
		t.Fatalf("pinned meta: %+v, %v", m, err)
	}
	trunks := map[PageID][]byte{}
	for id := m.freeHead; id != 0; id = PageID(binary.LittleEndian.Uint64(trunks[id])) {
		img, err := s.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		trunks[id] = img
	}
	for s.meta.freeHead != 0 || s.nfree > 0 {
		id, err := s.allocate()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := trunks[id]; ok {
			t.Fatalf("trunk page %d handed out while a snapshot is open", id)
		}
		if err := s.writePage(id, bytes.Repeat([]byte{0xEE}, PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for id, want := range trunks {
		if img, err := s.ReadPage(id); err != nil || !bytes.Equal(img, want) {
			t.Fatalf("trunk page %d of the pinned epoch changed while the catch-up streamed (%v)", id, err)
		}
	}
}
