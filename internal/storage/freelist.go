package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// This file keeps the list of unreachable pages: every page no published
// state references, reusable or pending. The commit that supersedes a page
// lists it, so a crash leaks nothing and open, with no snapshot yet, may
// reuse them all. A listed page costs an id, never an image: up to
// metaFreeCap ids sit inline in the meta page, which every commit logs,
// the rest in trunk pages [next][count][ids…] chained from meta.freeHead
// (a version-2 link page reads as an empty trunk).
//
// Which ids are reusable yet is known only in memory, in the epoch batches
// of epoch.go: meta.free[:nfree] are reusable, a stack, and meta.free[nfree:]
// the newest pending ids, oldest first. Past half the inline room, the
// oldest pending half moves into a trunk; spilled counts those, and the
// chain is consumed only when it is 0, so a consumed trunk is all reusable.
//
// Snapshot reads stay whole: a trunk is written only into a reusable or a
// new page, a pending page keeps its pool frame and cached decode, and a
// consumed trunk page is handed out only while no snapshot is open (else
// retired), so a catch-up (CatchUpSnapshot) reads its epoch's trunks.

// trunkHeader is a trunk page's [next][count] prefix; the ids follow.
const (
	trunkHeader = 16
	trunkCap    = (PageSize - trunkHeader) / 8
)

// errFreeList reports a list that does not name a set of pages of the
// file. Allocating from it would hand a page out twice or past the end.
func errFreeList(format string, args ...any) error {
	return fmt.Errorf("%w: free list: %s", errCorruptPage, fmt.Sprintf(format, args...))
}

// allocate returns a page available for use, reusing listed pages first.
// Allocated pages count as fresh until the next commit: the writer may
// rewrite them under the same id, since no published state can reference
// them.
func (s *Store) allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocateLocked()
}

func (s *Store) allocateLocked() (PageID, error) {
	if s.closed.Load() {
		return 0, errClosed
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

// popFree takes a reusable id off the list, 0 when there is none. With no
// inline reusable id left it consumes the head trunk, if no pending id is
// in a trunk and the ids fit inline: they move inline and the trunk page
// is handed out, or retired while a snapshot is open.
func (s *Store) popFree() (PageID, error) {
	for n := PageID(0); s.nfree == 0; n++ {
		head := s.meta.freeHead
		if head == 0 || s.spilled > 0 {
			return 0, nil
		}
		if n == s.pager.PageCount() {
			return 0, errFreeList("trunk chain from page %d does not end", head)
		}
		if err := s.checkFreeID(head); err != nil {
			return 0, err
		}
		next, ids, err := s.readTrunk(head)
		if err != nil {
			return 0, err
		}
		if len(ids) > metaFreeCap {
			return 0, errFreeList("trunk page %d holds %d ids, more than the meta page takes", head, len(ids))
		}
		if len(ids) > metaFreeCap-len(s.meta.free) {
			return 0, nil // no inline room until the pending ids are reusable
		}
		s.meta.free = slices.Insert(s.meta.free, 0, ids...)
		s.nfree = len(ids)
		s.meta.freeHead = next
		s.metaDirty = true
		s.ep.mu.Lock()
		pinned := len(s.ep.active) > 0
		s.ep.mu.Unlock()
		if !pinned {
			s.handout = s.meta.epoch + 1
			return head, nil
		}
		if err := s.listPending(head); err != nil {
			return 0, err
		}
	}
	return s.popInline()
}

// popInline takes the top inline reusable id, 0 when there is none.
func (s *Store) popInline() (PageID, error) {
	if s.nfree == 0 {
		return 0, nil
	}
	id := s.meta.free[s.nfree-1]
	if err := s.checkFreeID(id); err != nil {
		return 0, err
	}
	s.meta.free = slices.Delete(s.meta.free, s.nfree-1, s.nfree)
	s.nfree--
	s.metaDirty = true
	return id, nil
}

// checkFreeID rejects an id the list cannot hold: the meta page, one past
// the file's end, or one already handed out in this transaction (a cycle
// in a trunk chain reaches it again).
func (s *Store) checkFreeID(id PageID) error {
	if id == 0 || id >= s.pager.PageCount() {
		return errFreeList("page %d out of bounds (%d pages)", id, s.pager.PageCount())
	}
	if _, ok := s.fresh[id]; ok {
		return errFreeList("page %d handed out twice", id)
	}
	return nil
}

// free lists id as reusable at once — a page retired by the transaction
// that allocated it, one a crash left past the page count, a leak an
// upgrade reclaims — and drops its pool frame unwritten. When the inline
// ids are full, id becomes a trunk page.
func (s *Store) free(id PageID) error {
	s.pool.discard(id)
	s.metaDirty = true
	if len(s.meta.free) < metaFreeCap {
		s.meta.free = slices.Insert(s.meta.free, s.nfree, id)
		s.nfree++
		return nil
	}
	return s.spill(id)
}

// listPending lists id, a committed page the transaction supersedes, as
// pending at the last *prepared* epoch (meta.epoch), not the published
// one: a prepared-but-unpublished epoch may still reference the page. It
// keeps its pool frame and cached decode for the snapshots that read it.
func (s *Store) listPending(id PageID) error {
	s.ep.retireAt(s.meta.epoch, id)
	s.meta.free = append(s.meta.free, id)
	s.metaDirty = true
	if len(s.meta.free)-s.nfree <= metaFreeCap/2 && len(s.meta.free) <= metaFreeCap {
		return nil
	}
	trunk, err := s.popInline()
	if err == nil && trunk == 0 {
		trunk, err = s.pool.Grow()
	}
	if err != nil {
		return err
	}
	return s.spill(trunk)
}

// spill moves half the inline room's ids into trunk page id, a reusable or
// newly grown page, heading the chain: the oldest pending ids when more
// than half the room is pending, else the bottom of the reusable stack.
func (s *Store) spill(id PageID) error {
	half := metaFreeCap / 2
	pending := len(s.meta.free)-s.nfree > half
	from := 0
	if pending {
		from = s.nfree
	}
	img := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(img, uint64(s.meta.freeHead))
	binary.LittleEndian.PutUint64(img[8:], uint64(half))
	for i, x := range s.meta.free[from : from+half] {
		binary.LittleEndian.PutUint64(img[trunkHeader+8*i:], uint64(x))
	}
	if err := s.pool.Put(id, img); err != nil {
		return err
	}
	s.meta.free = slices.Delete(s.meta.free, from, from+half)
	if pending {
		s.spilled += half
	} else {
		s.nfree -= half
	}
	s.meta.freeHead = id
	return nil
}

// reclaim makes reusable every pending id no reader can see any more (see
// collectLocked) and drops their pool frames and cached decodes. The list
// on disk does not change: the split moves.
func (s *Store) reclaim() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return
	}
	e := &s.ep
	e.mu.Lock()
	ids, hz := e.collectLocked()
	e.mu.Unlock()
	s.noteHorizon(hz)
	for _, id := range ids {
		s.pool.discard(id)
	}
	inTrunks := min(len(ids), s.spilled)
	s.spilled -= inTrunks
	s.nfree += len(ids) - inTrunks
}

// readTrunk decodes trunk page id: the next trunk and the ids it holds.
func (s *Store) readTrunk(id PageID) (PageID, []PageID, error) {
	img, _, _, err := s.pool.page(id)
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

// freeMarker returns a function that adds an id to listed, a set indexed
// by page id, and rejects what the list cannot hold: the meta page, an id
// past the set's end, or an id already in it.
func freeMarker(listed []bool) func(PageID) error {
	return func(id PageID) error {
		if id == 0 || id >= PageID(len(listed)) {
			return errFreeList("page %d out of bounds (%d pages)", id, len(listed))
		}
		if listed[id] {
			return errFreeList("page %d listed twice", id)
		}
		listed[id] = true
		return nil
	}
}

// trunksLocked walks the trunk chain: its pages and the ids they hold. A
// chain longer than the file has a cycle. Callers hold s.mu.
func (s *Store) trunksLocked() (trunks, ids []PageID, err error) {
	for id := s.meta.freeHead; id != 0; {
		if len(trunks) == int(s.pager.PageCount()) {
			return nil, nil, errFreeList("trunk chain from page %d does not end", s.meta.freeHead)
		}
		next, held, err := s.readTrunk(id)
		if err != nil {
			return nil, nil, err
		}
		trunks, ids, id = append(trunks, id), append(ids, held...), next
	}
	return trunks, ids, nil
}

// listedLocked marks every listed page — the inline ids, each trunk page
// and the ids it holds — in a set indexed by page id, and rejects a list
// that is not a set of pages of the file. Callers hold s.mu.
func (s *Store) listedLocked() ([]bool, error) {
	trunks, ids, err := s.trunksLocked()
	if err != nil {
		return nil, err
	}
	listed := make([]bool, s.pager.PageCount())
	mark := freeMarker(listed)
	for _, id := range slices.Concat(trunks, ids, s.meta.free) {
		if err := mark(id); err != nil {
			return nil, err
		}
	}
	return listed, nil
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
