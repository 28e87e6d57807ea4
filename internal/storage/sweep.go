package storage

import "fmt"

// This file accounts for the pages of a file: every page but the meta page
// is reachable from the roots or listed (freelist.go), never both.

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

// Incomplete reports whether the store holds an unclean pre-version-4 file
// whose list of unreachable pages lacks the ids pending at its crash, not
// yet completed by ReclaimUnreachable.
func (s *Store) Incomplete() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.meta.incomplete
}

// ReclaimUnreachable accounts for every page of the file: each page in
// [1, PageCount) must be exactly one of reachable (indexed by page id, the
// pages sn's roots reach) or listed, and every pending page listed. A page
// both, or a list that is not a set of pages of the file, is an error. It
// returns how many pages are neither — 0, accounting for nothing, when the
// working state is no longer sn's (other roots, or pages allocated since).
// While the store is Incomplete, it lists those pages as reusable (durable
// at the next commit).
func (s *Store) ReclaimUnreachable(sn *Snap, reachable []bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, errClosed
	}
	if s.meta.roots != sn.roots || len(s.fresh) > 0 {
		return 0, nil
	}
	listed, err := s.listedLocked()
	if err != nil {
		return 0, err
	}
	s.ep.mu.Lock()
	defer s.ep.mu.Unlock()
	for _, b := range s.ep.pending {
		for _, id := range b.pages {
			if int(id) >= len(listed) || !listed[id] {
				return 0, fmt.Errorf("storage: page %d is pending reuse but not listed", id)
			}
		}
	}
	var leaked []PageID
	for id := PageID(1); id < PageID(len(listed)); id++ {
		r := int(id) < len(reachable) && reachable[id]
		switch {
		case r && listed[id]:
			return 0, fmt.Errorf("storage: page %d is reachable and listed", id)
		case !r && !listed[id]:
			leaked = append(leaked, id)
		}
	}
	if !s.meta.incomplete {
		return len(leaked), nil
	}
	s.meta.incomplete = false
	for _, id := range leaked {
		if err := s.free(id); err != nil {
			return 0, err
		}
	}
	return len(leaked), nil
}
