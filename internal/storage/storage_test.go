package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"
)

func openTempStore(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, path
}

func TestMetaRoundTrip(t *testing.T) {
	m := meta{freeHead: 42}
	m.roots[0] = 7
	m.roots[7] = 1234567
	var buf [PageSize]byte
	m.encode(buf[:])
	var got meta
	if err := got.decode(buf[:]); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != m {
		t.Fatalf("meta round trip: got %+v want %+v", got, m)
	}
}

func TestMetaRejectsGarbage(t *testing.T) {
	var buf [PageSize]byte
	copy(buf[:], "NOTMAGIC")
	var m meta
	if err := m.decode(buf[:]); err == nil {
		t.Fatal("decode of garbage succeeded")
	}
}

func TestFilePagerGrowReadWrite(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenFilePager(filepath.Join(dir, "p.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	id, err := p.Grow()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("first page id = %d, want 0", id)
	}
	want := make([]byte, PageSize)
	for i := range want {
		want[i] = byte(i)
	}
	if err := p.WritePage(id, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := p.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("page contents differ after round trip")
	}
	if err := p.ReadPage(99, got); err == nil {
		t.Fatal("out-of-bounds read succeeded")
	}
	if err := p.WritePage(99, want); err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
}

func TestFilePagerRejectsTornFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.db")
	if err := os.WriteFile(path, make([]byte, PageSize+7), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFilePager(path); err == nil {
		t.Fatal("opening a non-page-multiple file succeeded")
	}
}

func TestMemPagerBounds(t *testing.T) {
	p := NewMemPager()
	buf := make([]byte, PageSize)
	if err := p.ReadPage(0, buf); err == nil {
		t.Fatal("read of empty pager succeeded")
	}
	id, err := p.Grow()
	if err != nil || id != 0 {
		t.Fatalf("Grow = %d, %v", id, err)
	}
	if err := p.WritePage(0, buf); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if err := p.ReadPage(0, buf); err == nil {
		t.Fatal("read after close succeeded")
	}
}

func TestBufferPoolEvictsOnlyClean(t *testing.T) {
	p := NewMemPager()
	bp := NewBufferPool(p, 16)
	// Create 40 pages; write (dirty) the first 20.
	for i := 0; i < 40; i++ {
		if _, err := bp.Grow(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(bp.DirtyPages()); got != 40 {
		t.Fatalf("dirty pages = %d, want 40", got)
	}
	bp.ClearDirty()
	if got := bp.Len(); got > 16 {
		t.Fatalf("pool holds %d clean frames, limit 16", got)
	}
	// Dirty frames must survive eviction pressure.
	data := make([]byte, PageSize)
	data[0] = 0xAB
	if err := bp.Put(3, data); err != nil {
		t.Fatal(err)
	}
	for i := PageID(4); i < 40; i++ {
		if _, err := bp.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	got, err := bp.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatal("dirty frame lost under eviction pressure")
	}
}

func TestStoreAllocateFreeReuse(t *testing.T) {
	s, _ := openTempStore(t)
	a, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if a == 0 || b == 0 || a == b {
		t.Fatalf("bad allocations %d %d", a, b)
	}
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	c, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("freed page not reused: got %d want %d", c, a)
	}
}

func TestStoreRootsPersist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "roots.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(2, 77)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Root(2); got != 77 {
		t.Fatalf("root slot 2 = %d after reopen, want 77", got)
	}
}

func TestWALRecoversCommittedBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crash.db")

	// Build a valid store first so the page file has a meta page.
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash after WAL commit but before the page file write:
	// append a committed batch directly to the WAL.
	w, err := openWAL(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, PageSize)
	copy(img, "recovered!")
	if err := w.LogCommit([]DirtyPage{{ID: id, Data: img}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("recovered!")) {
		t.Fatalf("page %d not recovered from WAL: %q", id, got[:10])
	}
}

func TestWALDiscardsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	before, err := s.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	beforeCopy := append([]byte(nil), before...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Append a torn (uncommitted, truncated) page frame to the WAL.
	f, err := os.OpenFile(path+".wal", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], walFramePage)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(id))
	binary.LittleEndian.PutUint32(hdr[12:], PageSize)
	f.Write(hdr[:])
	f.Write(make([]byte, 100)) // far less than PageSize: torn
	f.Close()

	s, err = Open(path)
	if err != nil {
		t.Fatalf("open with torn WAL: %v", err)
	}
	defer s.Close()
	got, err := s.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, beforeCopy) {
		t.Fatal("torn WAL tail modified a page")
	}
	if got := s.WALSize(); got != 0 {
		t.Fatalf("WAL not reset after recovery: size=%d", got)
	}
}

// recordingPager is a page file as large as any page id, recording what
// recovery writes to it.
type recordingPager struct{ writes []DirtyPage }

func (p *recordingPager) ReadPage(PageID, []byte) error { return nil }
func (p *recordingPager) WritePage(id PageID, buf []byte) error {
	p.writes = append(p.writes, DirtyPage{ID: id, Data: bytes.Clone(buf)})
	return nil
}
func (p *recordingPager) WritePages(pages []DirtyPage) error {
	for _, pg := range pages {
		p.WritePage(pg.ID, pg.Data)
	}
	return nil
}
func (p *recordingPager) Grow() (PageID, error) { return 0, errors.New("recordingPager: no growing") }
func (p *recordingPager) PageCount() PageID     { return ^PageID(0) }
func (p *recordingPager) Sync() error           { return nil }
func (p *recordingPager) Close() error          { return nil }

// FuzzWALScan: arbitrary bytes as a log file, through open, ScanCommitted
// and Recover. The result is an error, or the replay of CRC-valid batches
// only — every batch handed out re-encodes, under the header's generation,
// to exactly the bytes it was read from, back to back from the first frame,
// and Recover writes exactly those pages, in order, then leaves an empty
// log of the next generation behind a header. The scan never panics and
// allocates no more than the input's size plus one page.
func FuzzWALScan(f *testing.F) {
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }
	a := []DirtyPage{{ID: 1, Data: page(1)}, {ID: 3, Data: page(3)}}
	b := []DirtyPage{{ID: 0, Data: page(7)}}
	two := appendWALBatch(appendWALBatch(appendWALHeader(nil, 1), walSeed(1), a), walSeed(1), b)
	f.Add([]byte{})
	f.Add(appendWALHeader(nil, 1))
	f.Add(two)
	f.Add(two[:len(two)-1])                                                                // a torn commit frame
	f.Add(append(bytes.Clone(two), appendWALBatch(nil, walSeed(1), b)[:100]...))           // a torn page frame
	f.Add(appendWALBatch(appendWALHeader(nil, 1), walSeed(2), a))                          // another generation's frames
	f.Add(appendWALBatch(appendWALBatch(nil, 0, a), 0, b))                                 // no header: generation 0
	f.Add(appendWALBatch(appendWALHeader(nil, 1<<40), walSeed(1<<40), nil))                // a batch of no pages
	f.Add(append(appendWALHeader(nil, 1), 0x45, 0x47, 0x41, 0x50, 0, 0, 0, 0, 0, 0, 0, 0)) // a page frame's kind and no more
	f.Fuzz(func(t *testing.T, data []byte) {
		gen, ok := readWALHeader(bytes.NewReader(data))
		var base int64
		if ok {
			base = walHeaderSize
		}
		var (
			batches [][]DirtyPage
			end     int64
			err     error
		)
		// The least of three scans: what else runs meanwhile (the fuzz
		// worker's own goroutines) only adds.
		alloc := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			batches = make([][]DirtyPage, 0, 16)
			runtime.ReadMemStats(&before)
			end, err = scanWAL(bytes.NewReader(data), walSeed(gen), base, int64(len(data)), func(pages []DirtyPage) error {
				batches = append(batches, pages)
				return nil
			})
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if err != nil {
			t.Fatalf("scanning bytes in memory: %v", err)
		}
		if limit := uint64(len(data) + PageSize); alloc > limit {
			t.Fatalf("%d bytes supplied, %d allocated, want at most %d", len(data), alloc, limit)
		}
		off := base
		for i, pages := range batches {
			enc := appendWALBatch(nil, walSeed(gen), pages)
			if int64(len(data)) < off+int64(len(enc)) || !bytes.Equal(data[off:off+int64(len(enc))], enc) {
				t.Fatalf("batch %d at offset %d is not a CRC-valid encoding in the input", i, off)
			}
			off += int64(len(enc))
		}
		if off > end {
			t.Fatalf("batches run to %d, past the committed end %d", off, end)
		}

		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := openWAL(path)
		if err != nil {
			return
		}
		defer w.Close()
		if w.gen != gen || w.base != base || w.Size() != end-base {
			t.Fatalf("open found generation %d, frames [%d, +%d), scan found %d, [%d, %d)", w.gen, w.base, w.Size(), gen, base, end)
		}
		var scanned []DirtyPage
		if err := w.ScanCommitted(func(pages []DirtyPage) error {
			scanned = append(scanned, pages...)
			return nil
		}); err != nil {
			return
		}
		var replayed []DirtyPage
		for _, pages := range batches {
			replayed = append(replayed, pages...)
		}
		pager := &recordingPager{}
		if err := w.Recover(pager); err != nil {
			return
		}
		for name, got := range map[string][]DirtyPage{"ScanCommitted": scanned, "Recover": pager.writes} {
			if len(got) != len(replayed) {
				t.Fatalf("%s gave %d pages, the scan %d", name, len(got), len(replayed))
			}
			for i := range got {
				if got[i].ID != replayed[i].ID || !bytes.Equal(got[i].Data, replayed[i].Data) {
					t.Fatalf("%s page %d differs from the scan's", name, i)
				}
			}
		}
		if g, ok := readWALHeader(w.f); !ok || g != gen+1 || w.Size() != 0 {
			t.Fatalf("after Recover: header generation %d (ok=%v), size %d; want generation %d, size 0", g, ok, w.Size(), gen+1)
		}
		if st, err := os.Stat(path); err != nil || (base == 0 && st.Size() != walHeaderSize) {
			t.Fatalf("a headerless log was not freed down to its header (err=%v)", err)
		}
	})
}

func TestBTreePutGetDelete(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v := []byte(fmt.Sprintf("val-%d", i*i))
		if err := tr.Put(k, v); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if got, _ := tr.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		v, ok, err := tr.Get(k)
		if err != nil || !ok {
			t.Fatalf("Get %d: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("val-%d", i*i); string(v) != want {
			t.Fatalf("Get %d = %q, want %q", i, v, want)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	// Overwrite.
	if err := tr.Put([]byte("key-000000"), []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := tr.Get([]byte("key-000000")); string(v) != "rewritten" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if got, _ := tr.Len(); got != n {
		t.Fatalf("Len after overwrite = %d, want %d", got, n)
	}
	// Delete half.
	for i := 0; i < n; i += 2 {
		k := []byte(fmt.Sprintf("key-%06d", i))
		ok, err := tr.Delete(k)
		if err != nil || !ok {
			t.Fatalf("Delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		_, ok, _ := tr.Get(k)
		if want := i%2 == 1; ok != want {
			t.Fatalf("after delete, Get %d present=%v want %v", i, ok, want)
		}
	}
	if ok, _ := tr.Delete([]byte("nonexistent")); ok {
		t.Fatal("Delete of missing key reported true")
	}
}

func TestBTreeRejectsBadKeys(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, _ := NewBTree(s)
	if err := tr.Put(nil, []byte("v")); err == nil {
		t.Fatal("Put with empty key succeeded")
	}
	if err := tr.Put(make([]byte, MaxKeySize+1), []byte("v")); err == nil {
		t.Fatal("Put with oversized key succeeded")
	}
}

func TestBTreeOverflowValues(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, _ := NewBTree(s)
	big := make([]byte, 3*PageSize+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := tr.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	got, ok, err := tr.Get([]byte("big"))
	if err != nil || !ok {
		t.Fatalf("Get big: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("overflow value corrupted")
	}
	// Replacing an overflow value must free the old chain for reuse.
	pagesBefore := s.PageCount()
	if err := tr.Put([]byte("big"), []byte("small now")); err != nil {
		t.Fatal(err)
	}
	big2 := make([]byte, 2*PageSize)
	if err := tr.Put([]byte("big2"), big2); err != nil {
		t.Fatal(err)
	}
	if s.PageCount() > pagesBefore+1 {
		t.Fatalf("overflow pages not reused: %d -> %d", pagesBefore, s.PageCount())
	}
	// Deleting an overflow value frees its chain too.
	if err := tr.Put([]byte("big3"), big); err != nil {
		t.Fatal(err)
	}
	count := s.PageCount()
	if _, err := tr.Delete([]byte("big3")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.writeOverflow(big); err != nil {
		t.Fatal(err)
	}
	if s.PageCount() != count {
		t.Fatalf("freed overflow chain not reused: %d -> %d", count, s.PageCount())
	}
}

func TestBTreeCursorOrder(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, _ := NewBTree(s)
	r := rand.New(rand.NewSource(1))
	keys := make(map[string]bool)
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("k%08d", r.Intn(100000))
		keys[k] = true
		if err := tr.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	n := 0
	for c.Valid() {
		k := c.Key()
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("cursor out of order: %q then %q", prev, k)
		}
		if !keys[string(k)] {
			t.Fatalf("cursor returned unknown key %q", k)
		}
		prev = append(prev[:0], k...)
		n++
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if n != len(keys) {
		t.Fatalf("cursor visited %d keys, want %d", n, len(keys))
	}
}

func TestBTreeSeek(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, _ := NewBTree(s)
	for i := 0; i < 100; i += 2 {
		if err := tr.Put([]byte(fmt.Sprintf("%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c, err := tr.Seek([]byte("0051"))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || string(c.Key()) != "0052" {
		t.Fatalf("Seek(0051) at %q, want 0052", c.Key())
	}
	c, err = tr.Seek([]byte("0098"))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Valid() || string(c.Key()) != "0098" {
		t.Fatalf("Seek(0098) at %q, want 0098", c.Key())
	}
	c, err = tr.Seek([]byte("9999"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Valid() {
		t.Fatal("Seek past end is valid")
	}
}

func TestBTreeEmptyCursor(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, _ := NewBTree(s)
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	if c.Valid() {
		t.Fatal("cursor on empty tree is valid")
	}
}

func TestBTreePersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bt.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(1, tr.Root())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr = OpenBTree(s, s.Root(1))
	for i := 0; i < 500; i++ {
		v, ok, err := tr.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || !ok {
			t.Fatalf("Get %d after reopen: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("v%d", i); string(v) != want {
			t.Fatalf("Get %d = %q want %q", i, v, want)
		}
	}
	if n, err := tr.Len(); err != nil || n != 500 {
		t.Fatalf("Len after reopen = %d, %v", n, err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeMatchesMapModel drives the tree and a Go map with the same random
// operation sequence and verifies they agree (property-based model check).
func TestBTreeMatchesMapModel(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	f := func(seed int64) bool {
		s := OpenMem()
		defer s.Close()
		tr, err := NewBTree(s)
		if err != nil {
			return false
		}
		model := make(map[string]string)
		r := rand.New(rand.NewSource(seed))
		for op := 0; op < 600; op++ {
			k := fmt.Sprintf("key%03d", r.Intn(200))
			switch r.Intn(3) {
			case 0, 1: // put
				v := fmt.Sprintf("val%d", r.Int63())
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					t.Logf("Put: %v", err)
					return false
				}
				model[k] = v
			case 2: // delete
				ok, err := tr.Delete([]byte(k))
				if err != nil {
					t.Logf("Delete: %v", err)
					return false
				}
				if _, inModel := model[k]; ok != inModel {
					t.Logf("Delete(%q)=%v but model has=%v", k, ok, inModel)
					return false
				}
				delete(model, k)
			}
		}
		for k, want := range model {
			v, ok, err := tr.Get([]byte(k))
			if err != nil || !ok || string(v) != want {
				t.Logf("Get(%q) = %q,%v,%v want %q", k, v, ok, err, want)
				return false
			}
		}
		n, err := tr.Len()
		if err != nil || n != len(model) {
			t.Logf("Len=%d want %d (%v)", n, len(model), err)
			return false
		}
		return tr.Check() == nil
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeSplitsSkewedCellsByBytes pins the split point to the byte
// midpoint. Splitting at len(keys)/2 let a node of many small cells followed
// by a run of large ones put all the large cells in one half, which then
// overflowed its page: the encoder wrote past 4096 B and the next read of
// the page panicked. The leaf case is the query-history table's (LCA rows
// of ~100 B, then clade rows of 450-1024 B); the internal case needs short
// separators followed by maximal keys.
func TestBTreeSplitsSkewedCellsByBytes(t *testing.T) {
	cases := []struct {
		name             string
		small, large     int
		largeKey         int
		smallVal, valMin int
		valSpan          int
	}{
		{name: "leaf", small: 300, large: 300, largeKey: 9, smallVal: 8, valMin: 450, valSpan: MaxInlineValue - 450 + 1},
		// 2-byte keys under 1000 B values make three-cell leaves, so the
		// root fills with short separators; 512 B keys then arrive on its
		// right edge.
		{name: "internal", small: 120, large: 60, largeKey: MaxKeySize, smallVal: 1000, valMin: 1000, valSpan: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := OpenMem()
			defer s.Close()
			tr, err := NewBTree(s)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(7))
			want := make(map[string][]byte)
			put := func(key []byte, vlen int) {
				t.Helper()
				val := make([]byte, vlen)
				r.Read(val)
				if err := tr.Put(key, val); err != nil {
					t.Fatalf("Put(%d B key, %d B value): %v", len(key), vlen, err)
				}
				want[string(key)] = val
			}
			for i := 0; i < tc.small; i++ {
				put([]byte{'a', byte(i)}, tc.smallVal)
			}
			for i := 0; i < tc.large; i++ {
				key := bytes.Repeat([]byte{'z'}, tc.largeKey)
				binary.BigEndian.PutUint32(key[len(key)-4:], uint32(i))
				put(key, tc.valMin+r.Intn(tc.valSpan))
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("Check: %v", err)
			}
			c, err := tr.First()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			n := 0
			for ; c.Valid(); n++ {
				v, err := c.Value()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(v, want[string(c.Key())]) {
					t.Fatalf("entry %d: value differs from what was put", n)
				}
				if err := c.Next(); err != nil {
					t.Fatal(err)
				}
			}
			if n != len(want) {
				t.Fatalf("scan saw %d entries, want %d", n, len(want))
			}
		})
	}
}

func TestStoreCommitDurability(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "durable.db")
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
	// Abandon the store without Close (simulated crash after commit).
	s.pager.Close()
	if s.wal != nil {
		s.wal.Close()
	}
	s.closed.Store(true)

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tr2 := OpenBTree(s2, s2.Root(1))
	v, ok, err := tr2.Get([]byte("alpha"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("committed data lost: %q %v %v", v, ok, err)
	}
}
