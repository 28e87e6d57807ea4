package storage

import (
	"encoding/binary"
	"fmt"
)

// This file keeps the free list: the pages no published state, open
// snapshot or pending retire list references, waiting for reuse. A free
// page costs an id, never an image. Up to metaFreeCap ids sit inline in
// the meta page, which every commit logs anyway, so freeing a page or
// reusing one writes nothing but the meta page. When the inline list is
// full, free spills its older half into a trunk page — the page being
// freed, laid out as [next][count][ids…] — and the trunk chain is headed
// from meta.freeHead. A freed page's image is dropped from the buffer pool
// unwritten, so a dropped tree's pages are never logged, shipped to a
// follower or written back; only the trunk pages are.
//
// A version-2 free page (a next link, then zeros) reads as an empty trunk:
// a v2 file's chain drains through the same refill path.

// trunkHeader is a trunk page's [next][count] prefix; the ids follow.
const (
	trunkHeader = 16
	trunkCap    = (PageSize - trunkHeader) / 8
)

// errFreeList reports a free list that does not name a set of pages of the
// file. Allocating from it would hand a page out twice or past the end.
func errFreeList(format string, args ...any) error {
	return fmt.Errorf("%w: free list: %s", ErrCorruptPage, fmt.Sprintf(format, args...))
}

// Allocate returns a page available for use, reusing freed pages first.
// Allocated pages count as fresh until the next commit: the writer may
// rewrite them under the same id, since no published state can reference
// them.
func (s *Store) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocate()
}

func (s *Store) allocate() (PageID, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	id, err := s.popFree()
	if err != nil {
		return 0, err
	}
	if id == 0 {
		if id, err = s.pool.Grow(); err != nil {
			return 0, err
		}
	}
	s.fresh[id] = struct{}{}
	return id, nil
}

// popFree takes an id off the free list, 0 when the list is empty. It
// reads a page only when the inline ids have run out and the head trunk's
// ids move inline; the trunk page itself is the id handed out.
func (s *Store) popFree() (PageID, error) {
	n := len(s.meta.free)
	if n == 0 && s.meta.freeHead == 0 {
		return 0, nil
	}
	id := s.meta.freeHead
	if n > 0 {
		id = s.meta.free[n-1]
	}
	if err := s.checkFreeID(id); err != nil {
		return 0, err
	}
	if n > 0 {
		s.meta.free = s.meta.free[:n-1]
	} else {
		next, ids, err := s.readTrunk(id)
		if err != nil {
			return 0, err
		}
		if len(ids) > metaFreeCap {
			return 0, errFreeList("trunk page %d holds %d ids, more than the meta page takes", id, len(ids))
		}
		s.meta.freeHead = next
		s.meta.free = append(s.meta.free, ids...)
	}
	s.metaDirty = true
	return id, nil
}

// checkFreeID rejects an id the free list cannot hold: the meta page, one
// past the file's end, or one already handed out in this transaction (a
// cycle in a trunk chain reaches it again).
func (s *Store) checkFreeID(id PageID) error {
	if id == 0 || id >= s.pager.PageCount() {
		return errFreeList("page %d out of bounds (%d pages)", id, s.pager.PageCount())
	}
	if _, ok := s.fresh[id]; ok {
		return errFreeList("page %d handed out twice", id)
	}
	return nil
}

// free puts id on the free list and drops its pool frame, dirty or clean,
// without writing it: nothing reads a free page's image, and its next owner
// installs a new one. When the inline ids are full, id becomes a trunk page
// holding their older half — the one page a free ever writes.
func (s *Store) free(id PageID) error {
	// The id is about to become reallocatable: no reader may resolve a
	// cached decode of its old contents once it is reused.
	s.dropCached(id)
	s.pool.discard(id)
	s.metaDirty = true
	if len(s.meta.free) < metaFreeCap {
		s.meta.free = append(s.meta.free, id)
		return nil
	}
	half := metaFreeCap / 2
	img := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(img, uint64(s.meta.freeHead))
	binary.LittleEndian.PutUint64(img[8:], uint64(half))
	for i, x := range s.meta.free[:half] {
		binary.LittleEndian.PutUint64(img[trunkHeader+8*i:], uint64(x))
	}
	if err := s.pool.Put(id, img); err != nil {
		return err
	}
	s.meta.free = append(s.meta.free[:0], s.meta.free[half:]...)
	s.meta.freeHead = id
	return nil
}

// readTrunk decodes trunk page id: the next trunk and the ids it holds.
func (s *Store) readTrunk(id PageID) (PageID, []PageID, error) {
	img, err := s.pool.Get(id)
	if err != nil {
		return 0, nil, err
	}
	next := PageID(binary.LittleEndian.Uint64(img))
	n := binary.LittleEndian.Uint64(img[8:])
	if n > trunkCap {
		return 0, nil, errFreeList("trunk page %d claims %d ids, room for %d", id, n, trunkCap)
	}
	ids := make([]PageID, n)
	for i := range ids {
		ids[i] = PageID(binary.LittleEndian.Uint64(img[trunkHeader+8*i:]))
	}
	return next, ids, nil
}

// checkInlineFree rejects a meta page whose inline ids are not distinct
// pages of the file. Opening checks them; the trunk chain is walked by the
// sweep and the page accounting (freeSetLocked).
func (s *Store) checkInlineFree() error {
	mark := freeMarker(make([]bool, s.pager.PageCount()))
	for _, id := range s.meta.free {
		if err := mark(id); err != nil {
			return err
		}
	}
	return nil
}

// freeMarker returns a function that adds an id to free, a set indexed by
// page id, and rejects what a free list cannot hold: the meta page, an id
// past the set's end, or an id already in it.
func freeMarker(free []bool) func(PageID) error {
	return func(id PageID) error {
		if id == 0 || id >= PageID(len(free)) {
			return errFreeList("page %d out of bounds (%d pages)", id, len(free))
		}
		if free[id] {
			return errFreeList("page %d listed twice", id)
		}
		free[id] = true
		return nil
	}
}

// freeSetLocked marks every page on the free list — the inline ids, each
// trunk page of the chain and the ids it holds — in a set indexed by page
// id. The list must be a set of pages of the file: id 0, an id at or past
// count, or an id seen twice (a cyclic chain included) is an error, so the
// walk reads at most count trunks. Callers hold s.mu.
func (s *Store) freeSetLocked(count PageID) ([]bool, error) {
	free := make([]bool, count)
	mark := freeMarker(free)
	for _, id := range s.meta.free {
		if err := mark(id); err != nil {
			return nil, err
		}
	}
	for id := s.meta.freeHead; id != 0; {
		if err := mark(id); err != nil {
			return nil, err
		}
		next, ids, err := s.readTrunk(id)
		if err != nil {
			return nil, err
		}
		for _, x := range ids {
			if err := mark(x); err != nil {
				return nil, err
			}
		}
		id = next
	}
	return free, nil
}

// growTo extends the page file to at least n pages. The pages are zeros and
// in no pool frame; open uses it to restore growth a crash lost (see meta),
// a replicated apply to match the primary's page count.
func (s *Store) growTo(n PageID) error {
	for s.pager.PageCount() < n {
		if _, err := s.pager.Grow(); err != nil {
			return err
		}
	}
	return nil
}
