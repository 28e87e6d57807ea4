package storage

import "fmt"

// This file implements the startup reclamation sweep. Retire lists live in
// memory, so a crash between retiring a page (COW supersession, an overflow
// chain replacement, a dropped relation) and the reclamation pass that
// returns it to the free list leaks the page: it is neither reachable from
// any published root nor on the free list, and nothing would ever reuse it.
// The sweep closes that gap at open time: callers that know the full root
// topology (package relstore walks the catalog and every table tree)
// compute the reachable page set, and ReclaimUnreachable frees everything
// else that is neither free nor pending reclamation. A page leaked by a
// crash is by construction unreachable from the recovered (last published)
// state, so the sweep can never free live data.

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

// ReclaimUnreachable accounts for every page of the file. Page 0 is the
// meta page; each page in [1, PageCount) must be exactly one of reachable
// (the caller's complete set, from the catalog down), free, or pending
// reclamation. A page that is none of them has leaked: ReclaimUnreachable
// returns how many leaked and, when reclaim is set, frees them (durable at
// the next commit). A page counted twice, or a free list that is not a set
// of pages of the file, is an error.
//
// The accounting needs a quiescent store — no transaction in progress, the
// last prepared commit published — and the reachable set of that state. On
// a busy store, or a replica (whose pending pages are its primary's), it
// accounts for nothing and returns 0. The open-time sweep reclaims; the
// integrity check (relstore's DB.Check) only counts.
func (s *Store) ReclaimUnreachable(reachable map[PageID]bool, reclaim bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if s.replica.Load() {
		return 0, nil
	}
	e := &s.ep
	e.mu.Lock()
	quiet := len(s.fresh) == 0 && s.meta.epoch == e.current && s.meta.roots == e.published
	var pending []PageID
	for _, b := range e.pending {
		quiet = quiet && b.epoch < e.current
		pending = append(pending, b.pages...)
	}
	e.mu.Unlock()
	if !quiet {
		return 0, nil
	}
	count := s.pager.PageCount()
	accounted, err := s.freeSetLocked(count)
	if err != nil {
		return 0, err
	}
	for id := range reachable {
		if id != 0 && id < count && accounted[id] {
			return 0, fmt.Errorf("storage: page %d is reachable and on the free list", id)
		}
	}
	for _, id := range pending {
		if id == 0 || id >= count || accounted[id] || reachable[id] {
			return 0, fmt.Errorf("storage: page %d is pending reclamation and out of bounds, free, reachable or pending twice", id)
		}
		accounted[id] = true
	}
	n := 0
	for id := PageID(1); id < count; id++ {
		if reachable[id] || accounted[id] {
			continue
		}
		n++
		if !reclaim {
			continue
		}
		if err := s.free(id); err != nil {
			return n, err
		}
	}
	return n, nil
}
