package storage

import "encoding/binary"

// This file implements the startup reclamation sweep. Retire lists live in
// memory, so a crash between retiring a page (COW supersession, an overflow
// chain replacement, a dropped relation) and the reclamation pass that
// returns it to the free list leaks the page: it is neither reachable from
// any published root nor on the free list, and nothing would ever reuse it.
// The sweep closes that gap at open time: callers that know the full root
// topology (package relstore walks the catalog and every table tree)
// compute the reachable page set, and ReclaimUnreachable frees everything
// else. A page leaked by a crash is by construction unreachable from the
// recovered (last published) state, so the sweep can never free live data.

// Pages calls visit for every page the tree occupies: internal nodes, leaf
// nodes and the overflow chains of spilled values. It is a read-only walk
// of the tree rooted at the handle's current root.
func (t *BTree) Pages(visit func(PageID)) error {
	visitOverflow := func(id PageID) error { visit(id); return nil }
	var walk func(id PageID) error
	walk = func(id PageID) error {
		visit(id)
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		if n.kind == pageInternal {
			for i := 0; i <= n.nkeys(); i++ {
				if err := walk(n.child(i)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n.nkeys(); i++ {
			// An unreadable ref has nothing to visit.
			if ref := n.val(i); n.overflow(i) && len(ref) == overflowRefSize {
				if err := t.overflowPages(ref, visitOverflow); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(t.root)
}

// FreePages returns the page ids currently chained on the free list.
func (s *Store) FreePages() ([]PageID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.freePagesLocked()
}

func (s *Store) freePagesLocked() ([]PageID, error) {
	var out []PageID
	for id := s.meta.freeHead; id != 0; {
		out = append(out, id)
		link, err := s.pool.Get(id)
		if err != nil {
			return nil, err
		}
		id = PageID(binary.LittleEndian.Uint64(link))
	}
	return out, nil
}

// ReclaimUnreachable returns every allocated page that is neither in
// reachable nor already on the free list to the free list, reporting how
// many were reclaimed. The caller supplies the complete reachable set (the
// meta page is implicit); pages freed here become durable at the next
// commit. Intended to run at open time, before any snapshot is taken.
func (s *Store) ReclaimUnreachable(reachable map[PageID]bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	free, err := s.freePagesLocked()
	if err != nil {
		return 0, err
	}
	onFreeList := make(map[PageID]bool, len(free))
	for _, id := range free {
		onFreeList[id] = true
	}
	n := 0
	for id := PageID(1); id < s.pager.PageCount(); id++ {
		if reachable[id] || onFreeList[id] {
			continue
		}
		if err := s.free(id); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
