package storage

import (
	"cmp"
	"container/list"
	"fmt"
	"slices"
	"sync"
)

// defaultPoolSize is the default number of page frames held by a buffer
// pool (4096 frames * 4 KiB pages = 16 MiB).
const defaultPoolSize = 4096

// frame is one cached page. A frame is on the LRU list only while it is
// clean; dirty frames are never evicted. data is the page's image and is
// immutable: nothing writes into it once the frame holds it. A new version
// of the page replaces the slice (Put), eviction merely drops the reference.
// node is the B+tree node decoded from data, once a read has decoded it
// (keep), so the next read of a resident page indexes no cell; it goes
// wherever data goes — cleared by Put, dropped with the frame. touched is
// the pool's tick when the frame last went to the front of the LRU list.
//
// A loading frame is a placeholder for a read in flight: it has no image
// yet and is on neither list. The first reader to wait for it makes
// readDone, and the read closes it when it ends, whether or not its image
// was installed; a read nobody waited for allocates no channel.
type frame struct {
	id       PageID
	data     []byte
	node     *node
	dirty    bool
	slot     int           // index in bufferPool.dirty while dirty
	elem     *list.Element // position in the LRU list (nil while dirty)
	touched  uint64
	loading  bool
	readDone chan struct{}
}

// zeroPage is the image of every page that has been grown but not yet
// written. Shared by all such frames; like every image it is never written.
var zeroPage = make([]byte, PageSize)

// bufferPool caches page images above a pageFile with LRU eviction. Dirty
// frames are never evicted; they are held until the Store commits them
// through the WAL, which keeps crash recovery simple (no steal policy).
//
// Images are immutable. page hands out the image itself — no copy — and the
// caller may keep it for as long as it likes: Put installs a new image
// beside it and eviction only drops the pool's reference, so neither can
// change bytes a reader holds. In exchange nobody may write into an image,
// neither a reader into one it got nor a writer into one it installed.
//
// The dirty frames are also kept on a list of their own, so collecting and
// clearing them at commit costs O(dirty · log dirty) — the size of the
// transaction — whatever the number of resident frames.
//
// All methods are safe for concurrent use. An internal mutex guards the
// frame table and the LRU list, and is held for a map lookup and at most
// an LRU touch, never across a pager read: a miss installs a loading frame,
// reads the page with the mutex released, and re-takes it to install the
// image.
// So a hit never waits on the disk, and readers of a page that is being
// read wait for that one read instead of starting their own. A Put or a
// discard of the page while its read is in flight supersedes the read: the
// reader gets the image it read, and the pool never installs it. Loading
// frames are outside the LRU list, so the pool exceeds its limit by at most
// the number of reads in flight.
//
// A hit moves its frame to the front of the LRU list only once the frame has
// left the newest quarter of it: tick counts the frames put at the front, and
// a hit moves a frame only when more than limit/4 went there since it did.
// A hit in the newest quarter therefore leaves the list alone, which keeps
// the mutex's hold on the hot path to a map lookup. Since no more than
// tick-touched frames can have overtaken a frame, one that a hit finds in
// the newest quarter is still evicted no sooner than by the ¾·limit-th
// frame put at the front after that hit (exact LRU: the limit-th).
type bufferPool struct {
	mu     sync.Mutex
	pager  pageFile
	frames map[PageID]*frame
	lru    *list.List // clean frames only, front = most recent
	limit  int
	tick   uint64   // frames put at the front of lru so far
	dirty  []*frame // the dirty frames, in no particular order
}

// newBufferPool creates a pool holding at most limit clean frames.
func newBufferPool(pager pageFile, limit int) *bufferPool {
	if limit < 16 {
		limit = 16
	}
	return &bufferPool{
		pager:  pager,
		frames: make(map[PageID]*frame),
		lru:    list.New(),
		limit:  limit,
	}
}

// poolRead says how page found the image it returned.
type poolRead uint8

const (
	poolHit    poolRead = iota // the frame was resident
	poolJoined                 // resident once another reader's in-flight read ended
	poolMiss                   // this call read it from the pager
)

// page returns the image of page id, and the node kept with it if a read
// has decoded one, reading the image from the pager on a miss; it reports
// how it found the image (feeding the pool hit/miss/wait counters). A read
// that waited for another reader's read and then had to read the page
// itself — that read failed or was superseded — is a miss.
func (bp *bufferPool) page(id PageID) ([]byte, *node, poolRead, error) {
	how := poolHit
	bp.mu.Lock()
	f, ok := bp.frames[id]
	for ok && f.loading {
		if f.readDone == nil {
			f.readDone = make(chan struct{})
		}
		wait := f.readDone
		bp.mu.Unlock()
		<-wait
		how = poolJoined
		bp.mu.Lock()
		f, ok = bp.frames[id]
	}
	if ok {
		if f.elem != nil && bp.tick-f.touched > uint64(bp.limit/4) {
			bp.front(f)
		}
		data, n := f.data, f.node
		bp.mu.Unlock()
		return data, n, how, nil
	}
	f = &frame{id: id, loading: true}
	bp.frames[id] = f
	bp.mu.Unlock()

	data := make([]byte, PageSize)
	err := bp.pager.ReadPage(id, data)
	bp.mu.Lock()
	if bp.frames[id] == f {
		if err != nil {
			delete(bp.frames, id)
		} else {
			f.data, f.loading = data, false
			bp.front(f)
			bp.evict()
		}
	}
	done := f.readDone
	bp.mu.Unlock()
	if done != nil {
		close(done)
	}
	if err != nil {
		return nil, nil, poolMiss, err
	}
	return data, nil, poolMiss, nil
}

// keep attaches n, decoded from an image that page returned, to its frame — if
// the frame still holds that very image. A Put, a discard or an eviction
// since the read leaves n unattached, and so does a superseded read, whose
// image no frame holds, so a kept node is always the decode of the image
// beside it. A loading frame has no image and gets no node. Like the image
// the node is immutable and shared by every reader the page's next reads
// return it to.
func (bp *bufferPool) keep(n *node) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[n.page]; ok && !f.loading && f.node == nil && &f.data[0] == &n.data[0] {
		f.node = n
	}
}

// Put installs img as the new image of page id and marks the page dirty.
// Ownership of img passes to the pool: the caller must not modify it
// afterwards (readers of the page's previous image keep that one). A read
// of the page in flight is superseded: Put installs a frame of its own in
// place of the loading one. The page is not written to the pager until the
// owning Store commits.
func (bp *bufferPool) Put(id PageID, img []byte) error {
	if len(img) != PageSize {
		return fmt.Errorf("storage: Put page %d with %d bytes", id, len(img))
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.loading {
		f = &frame{id: id}
		bp.frames[id] = f
	}
	f.data, f.node = img, nil
	bp.markDirty(f)
	return nil
}

// Grow extends the pager by one page and installs a zeroed dirty frame. The
// file extension runs without bp.mu, so no pool hit waits it out: the Store
// allocates under its own mutex, and no reader asks for a page before its
// allocation returns.
func (bp *bufferPool) Grow() (PageID, error) {
	id, err := bp.pager.Grow()
	if err != nil {
		return 0, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f := &frame{id: id, data: zeroPage}
	bp.frames[id] = f
	bp.markDirty(f)
	return id, nil
}

// markDirty removes f from the LRU list and flags it. Callers hold bp.mu.
func (bp *bufferPool) markDirty(f *frame) {
	if f.elem != nil {
		bp.lru.Remove(f.elem)
		f.elem = nil
	}
	if !f.dirty {
		f.dirty = true
		f.slot = len(bp.dirty)
		bp.dirty = append(bp.dirty, f)
	}
}

// discard drops page id's frame, dirty or clean, without its image going
// anywhere: the page has been freed, nothing reads a free page, and the
// page's next owner installs a new image. A loading frame is dropped too,
// which supersedes its read.
func (bp *bufferPool) discard(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		return
	}
	delete(bp.frames, id)
	if f.elem != nil {
		bp.lru.Remove(f.elem)
		f.elem = nil
	}
	if f.dirty {
		last := bp.dirty[len(bp.dirty)-1]
		bp.dirty[f.slot], last.slot = last, f.slot
		bp.dirty[len(bp.dirty)-1] = nil
		bp.dirty = bp.dirty[:len(bp.dirty)-1]
		f.dirty = false
	}
}

// front puts f at the front of the LRU list, pushing it if it is not on the
// list, and stamps it with the next tick. Callers hold bp.mu.
func (bp *bufferPool) front(f *frame) {
	bp.tick++
	f.touched = bp.tick
	if f.elem == nil {
		f.elem = bp.lru.PushFront(f)
	} else {
		bp.lru.MoveToFront(f.elem)
	}
}

// evict trims the LRU list to the pool limit. Only clean frames are ever
// on the list, so dirty pages survive. Callers hold bp.mu.
func (bp *bufferPool) evict() {
	for bp.lru.Len() > bp.limit {
		back := bp.lru.Back()
		f := back.Value.(*frame)
		bp.lru.Remove(back)
		delete(bp.frames, f.id)
	}
}

// DirtyPage is a page image pending commit.
type DirtyPage struct {
	ID   PageID
	Data []byte
}

// dirtyPages returns the pending page images in ascending page order. The
// Data slices are the pool's own immutable images, valid indefinitely.
func (bp *bufferPool) dirtyPages() []DirtyPage {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	out := make([]DirtyPage, len(bp.dirty))
	for i, f := range bp.dirty {
		out[i] = DirtyPage{ID: f.id, Data: f.data}
	}
	// Sort by page id for deterministic WAL contents.
	slices.SortFunc(out, func(a, b DirtyPage) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// dirtyCount reports the number of dirty frames without collecting them.
func (bp *bufferPool) dirtyCount() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.dirty)
}

// clearDirty moves all dirty frames onto the clean LRU list after a commit.
func (bp *bufferPool) clearDirty() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.dirty {
		f.dirty = false
		bp.front(f)
	}
	clear(bp.dirty) // evicted frames must not stay reachable from the list
	bp.dirty = bp.dirty[:0]
	bp.evict()
}
