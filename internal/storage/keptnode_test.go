package storage

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// These tests pin the rule that lets a buffer-pool frame keep the node
// decoded from its image: the node is the decode of the image beside it and
// of nothing else. Whatever replaces the image — a writer's rewrite, a
// reallocation, a replicated apply — leaves the next read to decode the new
// one, and a pinned snapshot that a replicated apply overtook gets its
// invalidation error, never the node it had decoded.

// leafImage encodes a leaf holding the given keys, each its own value.
func leafImage(t *testing.T, page PageID, keys ...string) []byte {
	t.Helper()
	e := &cells{kind: pageLeaf, page: page}
	for _, k := range keys {
		e.keys = append(e.keys, []byte(k))
		e.vals = append(e.vals, []byte(k))
		e.overflow = append(e.overflow, false)
	}
	img, err := e.image()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// readKeys reads page id as a tree node, counting what the read decoded.
func readKeys(t *testing.T, bt *BTree, id PageID) (*node, []string, int64) {
	t.Helper()
	var c obs.Counters
	n, err := bt.readNodeC(id, &c)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, n.nkeys())
	for i := range keys {
		keys[i] = string(n.key(i))
	}
	return n, keys, c.Get(obs.CtrCellsDecoded)
}

func wantKeys(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: page holds %v, want %v", what, got, want)
	}
}

// TestKeptNodeFollowsRewrite reads a page, so its frame keeps the node, and
// rewrites it three ways — writePage, writeCOW of a fresh page (same id),
// writeCOW of a committed page (a new id) — reading it again after each: the
// new cells come back every time, and only a read that finds its image
// already decoded skips the decode. A node decoded from an image the frame
// no longer holds — a writer replaced it between the read and the keep — is
// not attached.
func TestKeptNodeFollowsRewrite(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	id := bt.Root()
	if err := s.writePage(id, leafImage(t, id, "a")); err != nil {
		t.Fatal(err)
	}
	first, keys, cells := readKeys(t, bt, id)
	wantKeys(t, "first read", keys, "a")
	if cells != 1 {
		t.Fatalf("first read decoded %d cells, want 1", cells)
	}
	again, _, cells := readKeys(t, bt, id)
	if again != first || cells != 0 {
		t.Fatalf("second read: node %p (kept %p), %d cells decoded; want the kept node and none", again, first, cells)
	}

	if err := s.writePage(id, leafImage(t, id, "a", "b")); err != nil {
		t.Fatal(err)
	}
	n, keys, cells := readKeys(t, bt, id)
	wantKeys(t, "after writePage", keys, "a", "b")
	if n == first || cells != 2 {
		t.Fatalf("after writePage: the kept node came back, or %d cells decoded (want 2)", cells)
	}

	// A read that decoded an image a writer replaced before the node could
	// be kept: the node is not attached to the frame's new image.
	stale, _, _, err := s.pool.page(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.writePage(id, leafImage(t, id, "b")); err != nil {
		t.Fatal(err)
	}
	staleNode, err := decodeNode(id, stale)
	if err != nil {
		t.Fatal(err)
	}
	s.pool.keep(staleNode)
	_, keys, cells = readKeys(t, bt, id)
	wantKeys(t, "after a stale node was offered", keys, "b")
	if cells != 1 {
		t.Fatalf("the rewritten page decoded %d cells, want 1: a stale node was kept", cells)
	}

	got, err := s.writeCOW(id, leafImage(t, id, "c"))
	if err != nil || got != id {
		t.Fatalf("writeCOW of a fresh page landed on %d, %v; want %d", got, err, id)
	}
	_, keys, _ = readKeys(t, bt, id)
	wantKeys(t, "after writeCOW of the fresh page", keys, "c")

	s.SetRoot(0, id)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	defer sn.Close()
	pinned := OpenBTreeAt(s, id, sn.Epoch())
	_, keys, _ = readKeys(t, pinned, id)
	wantKeys(t, "committed page", keys, "c")
	nid, err := s.writeCOW(id, leafImage(t, 0, "d"))
	if err != nil || nid == id {
		t.Fatalf("writeCOW of a committed page landed on %d, %v; want a new page", nid, err)
	}
	_, keys, _ = readKeys(t, pinned, id)
	wantKeys(t, "the snapshot's page after the COW", keys, "c")
	_, keys, _ = readKeys(t, bt, nid)
	wantKeys(t, "the COW's new page", keys, "d")
}

// TestKeptNodeDroppedWithDiscard reads a fresh page, frees it — the
// transaction that allocated it retires it, which discards the frame — and
// reallocates the id with another image: the read returns the new image's
// cells, not the discarded node.
func TestKeptNodeDroppedWithDiscard(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	bt := OpenBTree(s, 0)
	id, err := s.allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.writePage(id, leafImage(t, id, "old")); err != nil {
		t.Fatal(err)
	}
	_, keys, _ := readKeys(t, bt, id)
	wantKeys(t, "before the free", keys, "old")
	if err := s.retire(id); err != nil {
		t.Fatal(err)
	}
	again, err := s.allocate()
	if err != nil || again != id {
		t.Fatalf("reallocation got page %d, %v; want the freed %d", again, err, id)
	}
	if err := s.writePage(id, leafImage(t, id, "new", "newer")); err != nil {
		t.Fatal(err)
	}
	_, keys, cells := readKeys(t, bt, id)
	wantKeys(t, "after the reallocation", keys, "new", "newer")
	if cells != 2 {
		t.Fatalf("the reallocated page decoded %d cells, want 2", cells)
	}
}

// TestKeptNodeNotServedAfterReplicatedApply: a follower's pinned snapshot
// reads its root page, so the frame keeps that node. The primary rewrites
// the tree until a commit reuses the page's id; the follower marks its open
// snapshots invalid and applies the batches, one of which replaces the page.
// From the mark on, the pinned read fails with ErrSnapshotInvalidated rather
// than return the node it decoded — before the apply, while the frame still
// keeps it, and after — and a fresh snapshot reads the new image.
func TestKeptNodeNotServedAfterReplicatedApply(t *testing.T) {
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
	put := func(k string) {
		t.Helper()
		if err := tree.Put([]byte(k), []byte(k)); err != nil {
			t.Fatal(err)
		}
		p.SetRoot(0, tree.Root())
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	put("k0")
	for _, b := range batches {
		if err := f.ApplyReplicated(b.Epoch, b.Pages); err != nil {
			t.Fatal(err)
		}
	}
	batches = nil
	sn := f.Snapshot()
	defer sn.Close()
	root := sn.Root(0)
	pinned := OpenBTreeAt(f, root, sn.Epoch())
	if _, ok, err := pinned.Get([]byte("k0")); err != nil || !ok {
		t.Fatalf("pinned read before the apply: ok=%v err=%v", ok, err)
	}
	if _, _, cells := readKeys(t, pinned, root); cells != 0 {
		t.Fatalf("the pinned root decoded %d cells again, want it kept", cells)
	}

	var image []byte // the last image a batch gives the pinned page
	puts := 0
	for puts < 8 && image == nil {
		puts++
		put(fmt.Sprintf("k%d", puts))
		for _, pg := range batches[len(batches)-1].Pages {
			if pg.ID == root {
				image = pg.Data
			}
		}
	}
	if image == nil {
		t.Fatalf("no primary commit reused page %d: the fixture does not overwrite the pinned page", root)
	}
	f.InvalidateSnapshotsBelow(sn.Epoch() + 1)
	if _, err := pinned.readNodeC(root, nil); !errors.Is(err, ErrSnapshotInvalidated) {
		t.Fatalf("pinned read of the kept node once invalidated: err=%v, want ErrSnapshotInvalidated", err)
	}
	for _, b := range batches {
		if err := f.ApplyReplicated(b.Epoch, b.Pages); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := pinned.Get([]byte("k0")); !errors.Is(err, ErrSnapshotInvalidated) {
		t.Fatalf("pinned read after the apply: err=%v, want ErrSnapshotInvalidated", err)
	}
	if _, err := pinned.readNodeC(root, nil); !errors.Is(err, ErrSnapshotInvalidated) {
		t.Fatalf("pinned node read after the apply: err=%v, want ErrSnapshotInvalidated", err)
	}

	fresh := f.Snapshot()
	defer fresh.Close()
	now := OpenBTreeAt(f, fresh.Root(0), fresh.Epoch())
	for i := 0; i <= puts; i++ {
		if _, ok, err := now.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || !ok {
			t.Fatalf("fresh snapshot misses k%d: ok=%v err=%v", i, ok, err)
		}
	}
	if img, err := f.ReadPage(root); err != nil || !bytes.Equal(img, image) {
		t.Fatalf("page %d after the apply: %v, or not the image the batch gave it", root, err)
	}
	if kind := image[0]; kind == pageLeaf || kind == pageInternal {
		if n, err := now.readNodeC(root, nil); err != nil || !bytes.Equal(n.data, image) {
			t.Fatalf("page %d reads as a node of another image after the apply (%v)", root, err)
		}
	}
}
