package storage

import (
	"fmt"
	"sync"
	"testing"
)

// TestStoreConcurrentReaders verifies the Store's locking under parallel
// readers mixed with an occasional writer. Run with -race to check for
// data races.
func TestStoreConcurrentReaders(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The B+tree itself is single-writer; concurrent READ access via
	// independent cursors is safe because all page I/O goes through the
	// buffer pool's mutex and page images are immutable.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := []byte(fmt.Sprintf("k%06d", (i*7+g*13)%n))
				v, ok, err := tr.Get(key)
				if err != nil || !ok {
					errs <- fmt.Errorf("goroutine %d: Get(%s) = %v, %v", g, key, ok, err)
					return
				}
				if len(v) == 0 {
					errs <- fmt.Errorf("goroutine %d: empty value", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStoreConcurrentPageIO exercises raw page reads/writes from many
// goroutines (distinct pages per goroutine to respect single-writer-per-
// page semantics).
func TestStoreConcurrentPageIO(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	const goroutines = 8
	ids := make([]PageID, goroutines)
	for i := range ids {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				buf := make([]byte, PageSize) // WritePage keeps it
				buf[0] = byte(g)
				buf[1] = byte(i)
				if err := s.WritePage(ids[g], buf); err != nil {
					errs <- err
					return
				}
				got, err := s.ReadPage(ids[g])
				if err != nil {
					errs <- err
					return
				}
				if got[0] != byte(g) || got[1] != byte(i) {
					errs <- fmt.Errorf("goroutine %d iteration %d: read back %d,%d", g, i, got[0], got[1])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
