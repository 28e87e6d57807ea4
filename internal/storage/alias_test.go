package storage

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
)

// These tests pin the rule that lets reads happen in place: a page image is
// never written after it is installed, so bytes a reader took from one stay
// what they were whatever happens to the page afterwards. Run under -race
// they also show that nothing writes the memory a reader is looking at.

// Find returns the position of the first entry of the leaf whose key is >=
// key, and whether that entry holds key itself.
func (l Leaf) Find(key []byte) (int, bool) { return leafIndex(l.n, key) }

// held is a slice some read returned, and what it held when returned.
type held struct {
	what string
	got  []byte
	want []byte
}

func hold(what string, got []byte) held {
	return held{what: what, got: got, want: bytes.Clone(got)}
}

func checkHeld(t *testing.T, when string, hs []held) {
	t.Helper()
	for _, h := range hs {
		if !bytes.Equal(h.got, h.want) {
			t.Fatalf("%s: %s changed under its holder", when, h.what)
		}
	}
}

// TestHeldBytesSurviveRewriteReuseAndEviction takes values, a held Leaf,
// cursor keys and whole page images from a snapshot, then lets a writer
// overwrite and delete everything across commits, closes the snapshot so
// the old pages are freed and their ids reused, checkpoints, and pushes
// enough traffic through a 16-frame pool to evict every frame. A second
// goroutine compares the held bytes throughout.
func TestHeldBytesSurviveRewriteReuseAndEviction(t *testing.T) {
	s, err := openFile(filepath.Join(t.TempDir(), "alias.db"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
	write := func(round int) {
		t.Helper()
		for i := 0; i < n; i++ {
			val := []byte(fmt.Sprintf("round-%d-value-%06d", round, i))
			if i%400 == 0 {
				val = bytes.Repeat(val, 200) // an overflow chain
			}
			if err := bt.Put(key(i), val); err != nil {
				t.Fatal(err)
			}
		}
		s.SetRoot(0, bt.Root())
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	write(0)

	sn := s.Snapshot()
	pinned := OpenBTreeAt(s, sn.Root(0), sn.Epoch())
	var hs []held
	for i := 0; i < n; i += 97 {
		v, ok, err := pinned.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("pinned get %d: ok=%v err=%v", i, ok, err)
		}
		hs = append(hs, hold(fmt.Sprintf("value of key %d", i), v))
	}
	leaf, err := pinned.LeafC(key(1500), nil)
	if err != nil {
		t.Fatal(err)
	}
	if pos, ok := leaf.Find(key(1500)); !ok || !bytes.Equal(leaf.Key(pos), key(1500)) {
		t.Fatalf("the leaf key 1500 routes to does not hold it (pos %d of %d)", pos, leaf.Len())
	}
	for i := 0; i < leaf.Len(); i++ {
		v, err := leaf.Val(i)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, hold("a held leaf's key", leaf.Key(i)), hold("a held leaf's value", v))
	}
	vals, _, err := pinned.GetBatchC(context.Background(), [][]byte{key(5), key(2995), key(1200)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		hs = append(hs, hold("a batched value", v))
	}
	c, err := pinned.Seek(key(700))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300 && c.Valid(); i++ {
		hs = append(hs, hold("a cursor key", c.Key()))
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// Every page of the snapshot's tree, by id, to show below that the ids
	// really were reused.
	images := map[PageID][]byte{}
	if err := pinned.Pages(func(id PageID) {
		img, err := s.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		images[id] = img
		hs = append(hs, hold(fmt.Sprintf("the image of page %d", id), img))
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, h := range hs {
				if !bytes.Equal(h.got, h.want) {
					t.Errorf("%s changed under its holder", h.what)
					return
				}
			}
		}
	}()

	// The snapshot pins the old pages: the writer's rewrites land elsewhere.
	write(1)
	checkHeld(t, "after an overwrite behind an open snapshot", hs)
	if v, ok, err := pinned.Get(key(97)); err != nil || !ok || !bytes.HasPrefix(v, []byte("round-0-")) {
		t.Fatalf("pinned read after overwrite: %q ok=%v err=%v", v, ok, err)
	}

	// Closed, its pages are freed by the next commits and their ids handed
	// out again; a checkpoint moves the new images to the page file, and
	// scans through the 16-frame pool evict whatever is left of the old.
	sn.Close()
	for round := 2; round < 6; round++ {
		write(round)
		for i := round; i < n; i += 7 {
			if _, err := bt.Delete(key(i)); err != nil {
				t.Fatal(err)
			}
		}
		s.SetRoot(0, bt.Root())
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenBTree(s, bt.Root()).Len(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	checkHeld(t, "after the pages were freed, reused, checkpointed and evicted", hs)
	// The held Leaf still answers from its image: same position, same bytes.
	if pos, ok := leaf.Find(key(1500)); !ok {
		t.Fatal("the held leaf lost key 1500")
	} else if v, err := leaf.Val(pos); err != nil || !bytes.HasPrefix(v, []byte("round-0-")) {
		t.Fatalf("the held leaf's value of key 1500 is %q, %v, want round 0's", v, err)
	}

	reused := 0
	for id, old := range images {
		now, err := s.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(now, old) {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("none of the snapshot's %d pages was reused: the test exercised nothing", len(images))
	}
	t.Logf("%d of the snapshot's %d page ids now name other bytes; %d held slices intact", reused, len(images), len(hs))
	// The frames really were under pressure: once the free-list links the
	// last reclamation dirtied are committed, the pool is back at its limit.
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := poolFrames(s.pool); got > 16+1 {
		t.Fatalf("pool holds %d frames, limit 16", got)
	}
}

// TestPointReadAllocations pins what reading in place buys: on a warm tree
// every page a read visits is resident with its node kept in the frame, so a point read allocates nothing and a batched
// read a constant, whatever the number of leaves it visits — whether a leaf
// holds 40 cells or 250. While each read decoded its leaf, a point read
// allocated the leaf's node and offset table, and a batched read those two
// per leaf on top of the constant.
func TestPointReadAllocations(t *testing.T) {
	for _, valueBytes := range []int{4, 90} {
		t.Run(fmt.Sprintf("value=%dB", valueBytes), func(t *testing.T) {
			s := OpenMem()
			defer s.Close()
			bt, err := NewBTree(s)
			if err != nil {
				t.Fatal(err)
			}
			pairs := make([]kv, 20000)
			for i := range pairs {
				pairs[i] = kv{Key: []byte(fmt.Sprintf("key-%06d", i)), Value: bytes.Repeat([]byte{'v'}, valueBytes)}
			}
			if err := bulkLoad(bt, pairs); err != nil {
				t.Fatal(err)
			}
			root, err := bt.readNode(bt.Root())
			if err != nil {
				t.Fatal(err)
			}
			first, err := bt.readNode(root.child(0))
			if err != nil {
				t.Fatal(err)
			}
			for first.kind != pageLeaf {
				if first, err = bt.readNode(first.child(0)); err != nil {
					t.Fatal(err)
				}
			}
			batch := make([][]byte, 64)
			for i := range batch {
				batch[i] = pairs[(i*311)%len(pairs)].Key
			}
			ctx := context.Background()
			if _, _, err := bt.GetBatchC(ctx, batch, nil); err != nil { // keeps the nodes it decodes
				t.Fatal(err)
			}
			key := pairs[12345].Key
			if got := testing.AllocsPerRun(200, func() {
				if _, ok, err := bt.getC(key, nil); err != nil || !ok {
					t.Fatal(ok, err)
				}
			}); got > 0 {
				t.Fatalf("getC allocates %v times with %d cells a leaf, want 0", got, first.nkeys())
			}
			_, cs := counterCtx()
			if _, _, err := bt.GetBatchC(ctx, batch, cs); err != nil {
				t.Fatal(err)
			}
			leaves := cs.Get(obs.CtrBTreeDescents)
			const fixed = 6 // the two result slices, the visit order, the descent stack
			if got := testing.AllocsPerRun(50, func() {
				if _, _, err := bt.GetBatchC(ctx, batch, nil); err != nil {
					t.Fatal(err)
				}
			}); got > fixed {
				t.Fatalf("GetBatchC allocates %v times over %d leaves of %d cells, want <= %d", got, leaves, first.nkeys(), fixed)
			}
			t.Logf("%d cells a leaf, %d leaves in the batch", first.nkeys(), leaves)
		})
	}
}
