package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// These tests pin the buffer pool's miss path: a miss reads its page with
// the pool mutex released, behind a loading frame that readers of the same
// page wait on. A pageFile whose reads of one page block until released
// holds a read in flight while the test looks at what else the pool does.

// blockingPager passes reads through to pageFile, except that a read of page
// id reports on entered and then waits for release. With
// readFirst the read takes the page's bytes before it waits (so it returns
// the bytes the page had when the read began); without, after. failFirst
// fails the first read of id, once released. With blockGrow, Grow reports
// and waits the same way before it extends the file.
type blockingPager struct {
	pageFile
	id        PageID
	readFirst bool
	failFirst bool
	blockGrow bool
	entered   chan struct{} // buffered past any test's reads, so none waits to report
	release   chan struct{} // closed by open
	opened    sync.Once
	reads     atomic.Int64 // reads of id
}

var errInjectedRead = errors.New("injected read failure")

func newBlockingPager(under pageFile, id PageID) *blockingPager {
	return &blockingPager{pageFile: under, id: id, entered: make(chan struct{}, 64), release: make(chan struct{})}
}

// open lets every read of the page, blocked or yet to come, through.
func (p *blockingPager) open() { p.opened.Do(func() { close(p.release) }) }

func (p *blockingPager) ReadPage(id PageID, buf []byte) error {
	if id != p.id {
		return p.pageFile.ReadPage(id, buf)
	}
	n := p.reads.Add(1)
	var err error
	if p.readFirst {
		err = p.pageFile.ReadPage(id, buf)
	}
	p.entered <- struct{}{}
	<-p.release
	if p.failFirst && n == 1 {
		return errInjectedRead
	}
	if !p.readFirst {
		err = p.pageFile.ReadPage(id, buf)
	}
	return err
}

func (p *blockingPager) Grow() (PageID, error) {
	if p.blockGrow {
		p.entered <- struct{}{}
		<-p.release
	}
	return p.pageFile.Grow()
}

// pageImage is a page of PageSize bytes that starts with tag.
func pageImage(tag string) []byte {
	img := make([]byte, PageSize)
	copy(img, tag)
	return img
}

// memPages returns an in-memory pager holding the given images as pages
// 0, 1, ...
func memPages(t *testing.T, imgs ...[]byte) pageFile {
	t.Helper()
	p := newMemPager()
	for _, img := range imgs {
		id, err := p.Grow()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.writePage(id, img); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// pageRead is what one bufferPool.page call returned.
type pageRead struct {
	img  []byte
	how  poolRead
	err  error
	done chan struct{}
}

// readAsync calls bp.page(id) on a goroutine of its own.
func readAsync(bp *bufferPool, id PageID) *pageRead {
	r := &pageRead{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.img, _, r.how, r.err = bp.page(id)
	}()
	return r
}

// awaitWaiters returns once n goroutines are parked in bufferPool.page
// waiting for another reader's read to end, or fails the test after a few
// seconds.
func awaitWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if strings.Count(stacks, "[chan receive]:\nrepro/internal/storage.(*bufferPool).page(") >= n {
			return
		}
	}
	t.Errorf("want %d readers waiting for the read in flight; they did not come", n)
}

// finishes runs fn on a goroutine and reports whether it returned within a
// few seconds. If it did not, finishes opens p, so that fn can return if a
// read p blocks is what it waits for, and waits for it.
func finishes(p *blockingPager, fn func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		p.open()
		<-done
		return false
	}
}

// TestPoolHitDoesNotWaitForMiss: while one page's read is blocked in the
// pager, a hit on another, resident page returns.
func TestPoolHitDoesNotWaitForMiss(t *testing.T) {
	bpager := newBlockingPager(memPages(t, pageImage("zero"), pageImage("one")), 1)
	bp := newBufferPool(bpager, 16)
	if _, _, _, err := bp.page(0); err != nil {
		t.Fatal(err)
	}
	miss := readAsync(bp, 1)
	<-bpager.entered
	var hit pageRead
	if !finishes(bpager, func() { hit.img, _, hit.how, hit.err = bp.page(0) }) {
		t.Error("a hit on a resident page waited for another page's read")
	}
	bpager.open()
	<-miss.done
	if hit.err != nil || hit.how != poolHit || !bytes.Equal(hit.img, pageImage("zero")) {
		t.Fatalf("hit: how %d, err %v, or not page 0's image", hit.how, hit.err)
	}
	if miss.err != nil || miss.how != poolMiss || !bytes.Equal(miss.img, pageImage("one")) {
		t.Fatalf("miss: how %d, err %v, or not page 1's image", miss.how, miss.err)
	}
}

// TestPoolHitDoesNotWaitForGrow: while the pager extends the file, a hit on
// a resident page returns, and the grown page's frame is installed once the
// extension is done.
func TestPoolHitDoesNotWaitForGrow(t *testing.T) {
	bpager := newBlockingPager(memPages(t, pageImage("zero")), 1) // page 1 is grown, never read
	bpager.blockGrow = true
	bp := newBufferPool(bpager, 16)
	if _, _, _, err := bp.page(0); err != nil {
		t.Fatal(err)
	}
	var grown PageID
	growErr := make(chan error, 1)
	go func() {
		var err error
		grown, err = bp.Grow()
		growErr <- err
	}()
	<-bpager.entered
	var hit pageRead
	if !finishes(bpager, func() { hit.img, _, hit.how, hit.err = bp.page(0) }) {
		t.Error("a hit on a resident page waited for the pager to grow")
	}
	bpager.open()
	if err := <-growErr; err != nil {
		t.Fatal(err)
	}
	if hit.err != nil || hit.how != poolHit || !bytes.Equal(hit.img, pageImage("zero")) {
		t.Fatalf("hit: how %d, err %v, or not page 0's image", hit.how, hit.err)
	}
	img, _, how, err := bp.page(grown)
	if err != nil || how != poolHit || !bytes.Equal(img, zeroPage) || grown != 1 {
		t.Fatalf("grown page %d: how %d, err %v, or not a zeroed frame", grown, how, err)
	}
}

// TestPoolConcurrentMissesReadOnce: readers of one missing page that arrive
// while its read is in flight wait for it: the pager reads the page once,
// one reader counts a miss and a page read, and the others hits.
func TestPoolConcurrentMissesReadOnce(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	id, err := s.allocate()
	if err != nil {
		t.Fatal(err)
	}
	want := pageImage("the page")
	if err := s.writePage(id, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	bpager := newBlockingPager(s.pager, id)
	s.pool = newBufferPool(bpager, 16)

	const readers = 8
	var cs [readers]obs.Counters
	imgs := make([][]byte, readers)
	errs := make([]error, readers)
	done := make(chan struct{}, readers)
	read := func(i int) {
		imgs[i], _, errs[i] = s.readPage(id, &cs[i])
		done <- struct{}{}
	}
	go read(0)
	<-bpager.entered
	for i := 1; i < readers; i++ {
		go read(i)
	}
	awaitWaiters(t, readers-1)
	bpager.open()
	for range readers {
		<-done
	}

	var total obs.Counters
	for i := range cs {
		if errs[i] != nil || !bytes.Equal(imgs[i], want) {
			t.Fatalf("reader %d: %v, or not the page's image", i, errs[i])
		}
		for _, c := range []obs.Counter{obs.CtrPoolHits, obs.CtrPoolMisses, obs.CtrPagesRead, obs.CtrPoolReadWaits} {
			total.Add(c, cs[i].Get(c))
		}
	}
	if got := bpager.reads.Load(); got != 1 {
		t.Fatalf("%d readers read the page %d times from the pager, want once", readers, got)
	}
	hits, misses, read1, waits := total.Get(obs.CtrPoolHits), total.Get(obs.CtrPoolMisses), total.Get(obs.CtrPagesRead), total.Get(obs.CtrPoolReadWaits)
	if misses != 1 || read1 != 1 || hits != readers-1 || waits != readers-1 {
		t.Fatalf("pool_misses %d, pages_read %d, pool_hits %d, pool_read_waits %d; want 1, 1, %d, %d",
			misses, read1, hits, waits, readers-1, readers-1)
	}
}

// TestPoolMissSupersededByPut: a Put of a page whose read is in flight does
// not wait for the read and wins: the read returns the bytes it read, never
// installed, and the next read of the page — a waiter's included — gets
// the Put image. A node decoded from the superseded image is not kept.
func TestPoolMissSupersededByPut(t *testing.T) {
	old, put := leafImage(t, 1, "old"), leafImage(t, 1, "put")
	bpager := newBlockingPager(memPages(t, pageImage("meta"), old), 1)
	bpager.readFirst = true
	bp := newBufferPool(bpager, 16)
	miss := readAsync(bp, 1)
	<-bpager.entered
	waiter := readAsync(bp, 1)
	awaitWaiters(t, 1)
	if !finishes(bpager, func() {
		if err := bp.Put(1, put); err != nil {
			t.Error(err)
		}
	}) {
		t.Error("Put waited for the page's read in flight")
	}
	bpager.open()
	<-miss.done
	<-waiter.done
	if miss.err != nil || miss.how != poolMiss || !bytes.Equal(miss.img, old) {
		t.Fatalf("superseded read: how %d, err %v, or not the image it read", miss.how, miss.err)
	}
	if waiter.err != nil || waiter.how != poolJoined || !bytes.Equal(waiter.img, put) {
		t.Fatalf("waiter: how %d, err %v, or not the Put image", waiter.how, waiter.err)
	}
	stale, err := decodeNode(1, miss.img)
	if err != nil {
		t.Fatal(err)
	}
	bp.keep(stale)
	for _, when := range []string{"before the commit", "after the commit"} {
		img, n, how, err := bp.page(1)
		if err != nil || how != poolHit || !bytes.Equal(img, put) || n != nil {
			t.Fatalf("%s: how %d, err %v, node %v; want a hit on the Put image, no node", when, how, err, n)
		}
		bp.clearDirty()
	}
	if got := bpager.reads.Load(); got != 1 {
		t.Fatalf("the page was read %d times, want once", got)
	}
}

// TestPoolMissSupersededByDiscard: a discard of a page whose read is in
// flight drops the loading frame; the read returns the bytes it read, never
// installed, and the next read of the page reads the page's new bytes.
func TestPoolMissSupersededByDiscard(t *testing.T) {
	mem := memPages(t, pageImage("meta"), pageImage("old"))
	bpager := newBlockingPager(mem, 1)
	bpager.readFirst = true
	bp := newBufferPool(bpager, 16)
	miss := readAsync(bp, 1)
	<-bpager.entered
	if !finishes(bpager, func() { bp.discard(1) }) {
		t.Error("discard waited for the page's read in flight")
	}
	// The page's next owner writes it.
	if err := mem.writePage(1, pageImage("new")); err != nil {
		t.Fatal(err)
	}
	bpager.open()
	<-miss.done
	if miss.err != nil || miss.how != poolMiss || !bytes.Equal(miss.img, pageImage("old")) {
		t.Fatalf("superseded read: how %d, err %v, or not the image it read", miss.how, miss.err)
	}
	img, _, how, err := bp.page(1)
	if err != nil || how != poolMiss || !bytes.Equal(img, pageImage("new")) {
		t.Fatalf("read after the discard: how %d, err %v, or not the new bytes (a stale image was installed)", how, err)
	}
	if got := bpager.reads.Load(); got != 2 {
		t.Fatalf("the page was read %d times, want twice", got)
	}
}

// TestPoolMissReadErrorNotCached: a read that fails installs nothing. Its
// caller gets the error, a reader waiting on it reads the page itself, and
// the page is resident after that.
func TestPoolMissReadErrorNotCached(t *testing.T) {
	bpager := newBlockingPager(memPages(t, pageImage("meta"), pageImage("one")), 1)
	bpager.failFirst = true
	bp := newBufferPool(bpager, 16)
	failed := readAsync(bp, 1)
	<-bpager.entered
	waiter := readAsync(bp, 1)
	awaitWaiters(t, 1)
	bpager.open()
	<-failed.done
	<-waiter.done
	if !errors.Is(failed.err, errInjectedRead) || failed.img != nil {
		t.Fatalf("failed read: err %v, image %v; want the injected error and no image", failed.err, failed.img != nil)
	}
	if waiter.err != nil || waiter.how != poolMiss || !bytes.Equal(waiter.img, pageImage("one")) {
		t.Fatalf("waiter: how %d, err %v, or not the page's image; want its own read", waiter.how, waiter.err)
	}
	img, _, how, err := bp.page(1)
	if err != nil || how != poolHit || !bytes.Equal(img, pageImage("one")) {
		t.Fatalf("read after the retry: how %d, err %v; want a hit on the page's image", how, err)
	}
	if got := bpager.reads.Load(); got != 2 {
		t.Fatalf("the page was read %d times, want twice (the failure and the retry)", got)
	}
}

// TestPoolMissDuringReplicatedApply: a follower's pinned snapshot misses on
// its root page, and while that read is in flight the follower marks its
// snapshots invalid and applies batches that rewrite the page. The pinned
// read gets the pre-apply node or ErrSnapshotInvalidated, whether its bytes
// were read before the apply or after it, and a fresh snapshot reads the
// post-apply image.
func TestPoolMissDuringReplicatedApply(t *testing.T) {
	for _, readFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("readFirst=%v", readFirst), func(t *testing.T) {
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
			apply := func() {
				for _, b := range batches {
					if err := f.ApplyReplicated(b.Epoch, b.Pages); err != nil {
						t.Error(err)
					}
				}
				batches = nil
			}
			put("k0")
			apply()
			sn := f.Snapshot()
			defer sn.Close()
			root := sn.Root(0)
			pre, err := f.ReadPage(root)
			if err != nil {
				t.Fatal(err)
			}

			var post []byte // the last image a batch gives the pinned page
			puts := 0
			for puts < 8 && post == nil {
				puts++
				put(fmt.Sprintf("k%d", puts))
				for _, pg := range batches[len(batches)-1].Pages {
					if pg.ID == root {
						post = pg.Data
					}
				}
			}
			if post == nil {
				t.Fatalf("no primary commit reused page %d: the fixture does not overwrite the pinned page", root)
			}

			// An empty pool whose read of the root blocks: the pinned read misses.
			bpager := newBlockingPager(f.pool.pager, root)
			bpager.readFirst = readFirst
			f.pool = newBufferPool(bpager, 16)
			pinned := OpenBTreeAt(f, root, sn.Epoch())
			var n *node
			var readErr error
			readDone := make(chan struct{})
			go func() {
				defer close(readDone)
				n, readErr = pinned.readNodeC(root, nil)
			}()
			<-bpager.entered
			if !finishes(bpager, func() {
				f.InvalidateSnapshotsBelow(sn.Epoch() + 1)
				apply()
			}) {
				t.Error("the replicated apply waited for the pinned snapshot's read in flight")
			}
			bpager.open()
			<-readDone
			switch {
			case errors.Is(readErr, ErrSnapshotInvalidated):
			case readErr != nil:
				t.Fatalf("pinned read: %v", readErr)
			case !bytes.Equal(n.data, pre):
				t.Fatal("the pinned read returned a node of the post-apply image")
			}

			img, err := f.ReadPage(root)
			if err != nil || !bytes.Equal(img, post) {
				t.Fatalf("page %d after the apply: %v, or not the image the batch gave it", root, err)
			}
			fresh := f.Snapshot()
			defer fresh.Close()
			now := OpenBTreeAt(f, fresh.Root(0), fresh.Epoch())
			for i := 0; i <= puts; i++ {
				if _, ok, err := now.Get([]byte(fmt.Sprintf("k%d", i))); err != nil || !ok {
					t.Fatalf("fresh snapshot misses k%d: ok=%v err=%v", i, ok, err)
				}
			}
		})
	}
}

// touchPool is a 16-frame pool over 64 pages, and a reader of it that fails
// the test on an error or on a hit or miss other than the one expected.
func touchPool(t *testing.T) (bp *bufferPool, read func(id PageID, want poolRead)) {
	t.Helper()
	imgs := make([][]byte, 64)
	for i := range imgs {
		imgs[i] = pageImage(fmt.Sprint(i))
	}
	bp = newBufferPool(memPages(t, imgs...), 16)
	return bp, func(id PageID, want poolRead) {
		t.Helper()
		if _, _, how, err := bp.page(id); err != nil || how != want {
			t.Fatalf("page %d: how %d, err %v; want how %d", id, how, err, want)
		}
	}
}

// resident reports whether page id has a frame, without touching it.
func resident(bp *bufferPool, id PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	_, ok := bp.frames[id]
	return ok
}

// TestPoolHitKeepsFrameThreeQuarters pins the touch rule at a limit of 16: a
// hit on a frame at most 4 (limit/4) front-moves old leaves the LRU list
// alone, yet the frame outlives the next 11 misses and goes with the 12th,
// ¾·limit after the hit; a hit on one that is 5 old moves it to the front,
// and it outlives 15 misses, as under exact LRU.
func TestPoolHitKeepsFrameThreeQuarters(t *testing.T) {
	for _, tc := range []struct {
		age      PageID // frames put at the front between page 0's miss and its hit
		survives PageID // misses of other pages page 0 outlives after the hit
	}{
		{4, 11}, // in the newest quarter: not moved
		{5, 15}, // out of it: moved to the front
	} {
		t.Run(fmt.Sprintf("age=%d", tc.age), func(t *testing.T) {
			bp, read := touchPool(t)
			read(0, poolMiss)
			next := PageID(1)
			for ; next <= tc.age; next++ {
				read(next, poolMiss)
			}
			read(0, poolHit)
			for i := PageID(0); i < tc.survives; i, next = i+1, next+1 {
				read(next, poolMiss)
				if !resident(bp, 0) {
					t.Fatalf("page 0 evicted by the %d-th miss after its hit, want it to outlive %d", i+1, tc.survives)
				}
			}
			read(next, poolMiss)
			if resident(bp, 0) {
				t.Fatalf("page 0 outlived %d misses after its hit, want evicted by the %d-th", tc.survives+1, tc.survives+1)
			}
		})
	}
}

// TestPoolEvictsInLRUOrder: frames nothing hits again leave in the order
// they came, one for each miss past the limit.
func TestPoolEvictsInLRUOrder(t *testing.T) {
	bp, read := touchPool(t)
	for id := PageID(0); id < 16; id++ {
		read(id, poolMiss)
	}
	for id := PageID(16); id < 48; id++ {
		read(id, poolMiss)
		for old := id - 16; old <= id; old++ {
			if want := old > id-16; resident(bp, old) != want {
				t.Fatalf("after reading page %d: page %d resident %v, want %v", id, old, !want, want)
			}
		}
	}
}

// BenchmarkPoolMissParallel reads pages of a file-backed store from
// parallel goroutines through a 64-frame pool over 2048 checkpointed pages.
// Two reads in three go to 32 hot pages, which stay resident, and the third
// to any page, which nearly always misses and reads the page file: the hit
// ratio is about two in three, the pool's on the served_cold workload.
func BenchmarkPoolMissParallel(b *testing.B) {
	const pages, hot = 2048, 32
	s, err := openFile(filepath.Join(b.TempDir(), "pool.db"), 64)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ids := make([]PageID, pages)
	for i := range ids {
		if ids[i], err = s.allocate(); err != nil {
			b.Fatal(err)
		}
		if err := s.writePage(ids[i], pageImage(fmt.Sprint(i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		b.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	var seed atomic.Int64
	b.SetParallelism(2)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			id := ids[r.Intn(pages)]
			if r.Intn(3) > 0 {
				id = ids[r.Intn(hot)]
			}
			if _, err := s.ReadPage(id); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
