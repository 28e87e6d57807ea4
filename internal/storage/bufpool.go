package storage

import (
	"cmp"
	"container/list"
	"fmt"
	"slices"
	"sync"
)

// DefaultPoolSize is the default number of page frames held by a buffer
// pool (4096 frames * 4 KiB pages = 16 MiB).
const DefaultPoolSize = 4096

// frame is one cached page. A frame is on the LRU list only while it is
// clean; dirty frames are never evicted. data is the page's image and is
// immutable: nothing writes into it once the frame holds it. A new version
// of the page replaces the slice (Put), eviction merely drops the reference.
type frame struct {
	id    PageID
	data  []byte
	dirty bool
	elem  *list.Element // position in the LRU list (nil while dirty)
}

// zeroPage is the image of every page that has been grown but not yet
// written. Shared by all such frames; like every image it is never written.
var zeroPage = make([]byte, PageSize)

// BufferPool caches page images above a Pager with LRU eviction. Dirty
// frames are never evicted; they are held until the Store commits them
// through the WAL, which keeps crash recovery simple (no steal policy).
//
// Images are immutable. Get hands out the image itself — no copy — and the
// caller may keep it for as long as it likes: Put installs a new image
// beside it and eviction only drops the pool's reference, so neither can
// change bytes a reader holds. In exchange nobody may write into an image,
// neither a reader into one it got nor a writer into one it installed.
//
// The dirty frames are also kept on a list of their own, so collecting and
// clearing them at commit costs O(dirty · log dirty) — the size of the
// transaction — whatever the number of resident frames.
//
// All methods are safe for concurrent use; an internal mutex serializes
// access to the frame table and the LRU list (a map lookup and an LRU touch
// on a hit).
type BufferPool struct {
	mu     sync.Mutex
	pager  Pager
	frames map[PageID]*frame
	lru    *list.List // clean frames only, front = most recent
	limit  int
	dirty  []*frame // the dirty frames, in the order they were dirtied
}

// NewBufferPool creates a pool holding at most limit clean frames.
func NewBufferPool(pager Pager, limit int) *BufferPool {
	if limit < 16 {
		limit = 16
	}
	return &BufferPool{
		pager:  pager,
		frames: make(map[PageID]*frame),
		lru:    list.New(),
		limit:  limit,
	}
}

// page returns the image of page id, reading it from the pager on a miss,
// and reports whether the frame was already resident (feeding the pool
// hit/miss counters).
func (bp *BufferPool) page(id PageID) ([]byte, bool, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		if f.elem != nil {
			bp.lru.MoveToFront(f.elem)
		}
		return f.data, true, nil
	}
	data := make([]byte, PageSize)
	if err := bp.pager.ReadPage(id, data); err != nil {
		return nil, false, err
	}
	f := &frame{id: id, data: data}
	f.elem = bp.lru.PushFront(f)
	bp.frames[id] = f
	bp.evict()
	return data, false, nil
}

// Get returns the image of page id. The slice is shared and immutable: the
// caller must not write into it, and may hold it indefinitely.
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	img, _, err := bp.page(id)
	return img, err
}

// Put installs img as the new image of page id and marks the page dirty.
// Ownership of img passes to the pool: the caller must not modify it
// afterwards (readers of the page's previous image keep that one). The page
// is not written to the pager until the owning Store commits.
func (bp *BufferPool) Put(id PageID, img []byte) error {
	if len(img) != PageSize {
		return fmt.Errorf("storage: Put page %d with %d bytes", id, len(img))
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok {
		f = &frame{id: id}
		bp.frames[id] = f
	}
	f.data = img
	bp.markDirty(f)
	return nil
}

// Grow extends the pager by one page and installs a zeroed dirty frame.
func (bp *BufferPool) Grow() (PageID, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	id, err := bp.pager.Grow()
	if err != nil {
		return 0, err
	}
	f := &frame{id: id, data: zeroPage}
	bp.frames[id] = f
	bp.markDirty(f)
	return id, nil
}

// markDirty removes f from the LRU list and flags it. Callers hold bp.mu.
func (bp *BufferPool) markDirty(f *frame) {
	if f.elem != nil {
		bp.lru.Remove(f.elem)
		f.elem = nil
	}
	if !f.dirty {
		f.dirty = true
		bp.dirty = append(bp.dirty, f)
	}
}

// evict trims the LRU list to the pool limit. Only clean frames are ever
// on the list, so dirty pages survive. Callers hold bp.mu.
func (bp *BufferPool) evict() {
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

// DirtyPages returns the pending page images in ascending page order. The
// Data slices are the pool's own immutable images, valid indefinitely.
func (bp *BufferPool) DirtyPages() []DirtyPage {
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

// DirtyCount reports the number of dirty frames without collecting them.
func (bp *BufferPool) DirtyCount() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.dirty)
}

// ClearDirty moves all dirty frames onto the clean LRU list after a commit.
func (bp *BufferPool) ClearDirty() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, f := range bp.dirty {
		f.dirty = false
		f.elem = bp.lru.PushFront(f)
	}
	clear(bp.dirty) // evicted frames must not stay reachable from the list
	bp.dirty = bp.dirty[:0]
	bp.evict()
}

// Len reports the number of cached frames (clean + dirty).
func (bp *BufferPool) Len() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}
