package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/obs"
)

// samplePages builds a three-level tree with a few overflow values and
// returns one image of each kind of page it wrote: a leaf, an internal node
// and an overflow page.
func samplePages(tb testing.TB) (leaf, internal, overflow []byte) {
	tb.Helper()
	s := OpenMem()
	defer s.Close()
	bt, err := NewBTree(s)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		val := []byte(fmt.Sprintf("value-%d", i))
		if i%500 == 0 {
			val = bytes.Repeat([]byte{byte(i)}, PageSize+100)
		}
		if err := bt.Put([]byte(fmt.Sprintf("key-%06d", i)), val); err != nil {
			tb.Fatal(err)
		}
	}
	err = bt.Pages(func(id PageID) {
		img, err := s.ReadPage(id)
		if err != nil {
			tb.Fatal(err)
		}
		switch img[0] {
		case pageLeaf:
			leaf = img
		case pageInternal:
			internal = img
		case pageOverflow:
			overflow = img
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	if leaf == nil || internal == nil || overflow == nil {
		tb.Fatal("sample tree lacks a page kind")
	}
	return leaf, internal, overflow
}

// checkDecoded asserts what FuzzNodeDecode promises of a successful decode:
// every key and value lies inside the page, and encoding the node's cells
// again reproduces the bytes they were read from.
func checkDecoded(t *testing.T, n *node) {
	t.Helper()
	inside := func(b []byte) bool {
		if len(b) == 0 {
			return true
		}
		lo := uintptrDiff(n.data, b)
		return lo >= 0 && lo+len(b) <= PageSize
	}
	for i := 0; i < n.nkeys(); i++ {
		if !inside(n.key(i)) {
			t.Fatalf("key %d lies outside the page", i)
		}
		if n.kind == pageLeaf && !inside(n.val(i)) {
			t.Fatalf("value %d lies outside the page", i)
		}
	}
	again, err := n.edit().image()
	if err != nil {
		t.Fatalf("re-encoding a decoded node: %v", err)
	}
	if !bytes.Equal(again[:n.end], n.data[:n.end]) {
		t.Fatal("re-encoding a decoded node changed its cells")
	}
}

// uintptrDiff returns how far into page sub starts (negative, or beyond
// the page, when it does not point into it).
func uintptrDiff(page, sub []byte) int {
	return int(uintptr(unsafe.Pointer(unsafe.SliceData(sub))) - uintptr(unsafe.Pointer(unsafe.SliceData(page))))
}

// FuzzNodeDecode feeds arbitrary bytes to the one node decoder. Torn and
// hostile pages must come back as errCorruptPage (naming the page), never
// as a panic; whatever does decode must lie inside the page and re-encode
// to the same cells.
func FuzzNodeDecode(f *testing.F) {
	leaf, internal, overflow := samplePages(f)
	for _, img := range [][]byte{leaf, internal, overflow} {
		f.Add(img)
		torn := bytes.Clone(img)
		copy(torn[PageSize/2:], leaf) // another page's bytes from the middle on
		f.Add(torn)
	}
	f.Add([]byte{pageLeaf, 0xff, 0xff})
	f.Add([]byte{pageInternal, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		img := make([]byte, PageSize)
		copy(img, raw)
		n, err := decodeNode(7, img)
		if err != nil {
			if !errors.Is(err, errCorruptPage) || !strings.Contains(err.Error(), "page 7") {
				t.Fatalf("decode error %q is not ErrCorruptPage naming the page", err)
			}
			return
		}
		checkDecoded(t, n)
	})
}

// TestCorruptPagesAreErrors drives the hostile cases through the read path
// itself: a tree whose leaf was overwritten with bytes that claim more than
// the page holds answers reads with errCorruptPage instead of panicking.
func TestCorruptPagesAreErrors(t *testing.T) {
	leaf, internal, _ := samplePages(t)
	for name, damage := range map[string]func(img []byte){
		"cell count":     func(img []byte) { binary.LittleEndian.PutUint16(img[1:], 0xffff) },
		"key length":     func(img []byte) { binary.LittleEndian.PutUint16(img[leafHeaderSize:], 0xfff0) },
		"value length":   func(img []byte) { binary.LittleEndian.PutUint16(img[leafHeaderSize+2:], 0x7fff) },
		"not a node":     func(img []byte) { img[0] = 9 },
		"cells past end": func(img []byte) { binary.LittleEndian.PutUint16(img[1:], (PageSize-leafHeaderSize)/4) },
	} {
		t.Run(name, func(t *testing.T) {
			s := OpenMem()
			defer s.Close()
			bt, err := NewBTree(s)
			if err != nil {
				t.Fatal(err)
			}
			img := bytes.Clone(leaf)
			damage(img)
			if err := s.writePage(bt.Root(), img); err != nil {
				t.Fatal(err)
			}
			_, _, err = bt.Get([]byte("key-000100"))
			if !errors.Is(err, errCorruptPage) || !strings.Contains(err.Error(), fmt.Sprintf("page %d", bt.Root())) {
				t.Fatalf("Get on a damaged leaf: err = %v, want ErrCorruptPage naming page %d", err, bt.Root())
			}
			if _, err := bt.First(); !errors.Is(err, errCorruptPage) {
				t.Fatalf("First on a damaged leaf: err = %v, want ErrCorruptPage", err)
			}
			if err := bt.Check(); !errors.Is(err, errCorruptPage) {
				t.Fatalf("Check on a damaged leaf: err = %v, want ErrCorruptPage", err)
			}
		})
	}
	// An overflow ref whose chain is not made of overflow pages, or claims
	// more bytes than a page has, is an error too.
	s := OpenMem()
	defer s.Close()
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Put([]byte("big"), bytes.Repeat([]byte{1}, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	root, err := bt.readNode(bt.Root())
	if err != nil {
		t.Fatal(err)
	}
	head := PageID(binary.LittleEndian.Uint64(root.val(0)))
	if err := s.writePage(head, bytes.Clone(internal)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bt.Get([]byte("big")); !errors.Is(err, errCorruptPage) {
		t.Fatalf("Get through a damaged overflow chain: err = %v, want ErrCorruptPage", err)
	}
	long := make([]byte, PageSize)
	long[0] = pageOverflow
	binary.LittleEndian.PutUint32(long[9:], PageSize)
	if err := s.writePage(head, long); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bt.Get([]byte("big")); !errors.Is(err, errCorruptPage) {
		t.Fatalf("Get through an overflow page claiming a full page: err = %v, want ErrCorruptPage", err)
	}
}

// TestSeekBatchMatchesSeek checks the batched seek and the one-key seek
// against one cursor per key — present keys, absent ones, keys before the
// first and after the last entry, duplicates, any order — that a sorted
// sweep costs no more descents than the distinct leaves it lands in, and
// that a one-key seek allocates nothing.
func TestSeekBatchMatchesSeek(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := bt.Put([]byte(fmt.Sprintf("k%05d", 2*i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var keys [][]byte
	for _, i := range []int{4001, 17, 17, 0, 5999, 5998, 9999, 2500, 2501, 2502, 1, 3333} {
		keys = append(keys, []byte(fmt.Sprintf("k%05d", i)))
	}
	keys = append(keys, []byte("a"), []byte("z"))
	root := obs.NewRoot("test")
	found, vals, err := bt.SeekBatchC(context.Background(), keys, root.Counters())
	if err != nil {
		t.Fatal(err)
	}
	leaves := map[PageID]bool{} // the leaves the keys route to, and the ones their entries are in
	for i, key := range keys {
		c := &cursor{tree: bt}
		if _, err := c.locate(key); err != nil {
			t.Fatal(err)
		}
		leaves[c.leaf.page] = true
		if err := c.skipEmpty(); err != nil {
			t.Fatal(err)
		}
		one, oneVal, err := bt.SeekOneC(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Valid() {
			if found[i] != nil || one != nil {
				t.Fatalf("seek %s: batch found %s, one-key seek %s, cursor nothing", key, found[i], one)
			}
			continue
		}
		leaves[c.leaf.page] = true
		v, err := c.Value()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(found[i], c.Key()) || !bytes.Equal(vals[i], v) {
			t.Fatalf("seek %s: batch (%s, %s), cursor (%s, %s)", key, found[i], vals[i], c.Key(), v)
		}
		if !bytes.Equal(one, c.Key()) || !bytes.Equal(oneVal, v) {
			t.Fatalf("seek %s: one-key seek (%s, %s), cursor (%s, %s)", key, one, oneVal, c.Key(), v)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, _, err := bt.SeekOneC(keys[0], nil); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("a one-key seek allocates %v times, want 0", got)
	}
	if d := root.Counters().Get(obs.CtrBTreeDescents); d == 0 || d > int64(len(leaves)) {
		t.Fatalf("batched seek took %d descents over %d distinct leaves", d, len(leaves))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := bt.SeekBatchC(ctx, keys, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batched seek: err = %v, want context.Canceled", err)
	}
}
