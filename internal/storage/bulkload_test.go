package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// kv is one key/value pair of a test's bulk load.
type kv struct {
	Key   []byte
	Value []byte
}

// bulkLoad hands pairs to BulkLoad as the accessor it takes.
func bulkLoad(tr *BTree, pairs []kv) error {
	return tr.BulkLoad(len(pairs), func(i int) ([]byte, []byte) { return pairs[i].Key, pairs[i].Value })
}

func bulkPairs(n int) []kv {
	pairs := make([]kv, n)
	for i := range pairs {
		pairs[i] = kv{
			Key:   []byte(fmt.Sprintf("key%08d", i)),
			Value: []byte(fmt.Sprintf("value-%d", i)),
		}
	}
	return pairs
}

func TestBulkLoadMatchesPut(t *testing.T) {
	for _, n := range []int{0, 1, 7, 500, 20000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			pairs := bulkPairs(n)
			s := OpenMem()
			defer s.Close()
			tr, err := NewBTree(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := bulkLoad(tr, pairs); err != nil {
				t.Fatal(err)
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("structural check after bulk load: %v", err)
			}
			if got, err := tr.Len(); err != nil || got != n {
				t.Fatalf("Len = %d, %v, want %d", got, err, n)
			}
			for _, p := range pairs {
				v, ok, err := tr.Get(p.Key)
				if err != nil || !ok {
					t.Fatalf("Get(%s) = %v, %v", p.Key, ok, err)
				}
				if !bytes.Equal(v, p.Value) {
					t.Fatalf("Get(%s) = %q, want %q", p.Key, v, p.Value)
				}
			}
			// Cursor order matches the input order.
			c, err := tr.First()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			i := 0
			for c.Valid() {
				if !bytes.Equal(c.Key(), pairs[i].Key) {
					t.Fatalf("cursor entry %d = %s, want %s", i, c.Key(), pairs[i].Key)
				}
				i++
				if err := c.Next(); err != nil {
					t.Fatal(err)
				}
			}
			if i != n {
				t.Fatalf("cursor visited %d entries, want %d", i, n)
			}
		})
	}
}

func TestBulkLoadOverflowValues(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	pairs := make([]kv, 40)
	for i := range pairs {
		val := make([]byte, maxInlineValue*3+i*100)
		r.Read(val)
		pairs[i] = kv{Key: []byte(fmt.Sprintf("big%04d", i)), Value: val}
	}
	if err := bulkLoad(tr, pairs); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		v, ok, err := tr.Get(p.Key)
		if err != nil || !ok || !bytes.Equal(v, p.Value) {
			t.Fatalf("overflow value for %s: ok=%v err=%v equal=%v", p.Key, ok, err, bytes.Equal(v, p.Value))
		}
	}
}

func TestBulkLoadRejectsUnsortedAndNonEmpty(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	err = bulkLoad(tr, []kv{{Key: []byte("b"), Value: nil}, {Key: []byte("a"), Value: nil}})
	if !errors.Is(err, errUnsorted) {
		t.Fatalf("unsorted load error = %v", err)
	}
	err = bulkLoad(tr, []kv{{Key: []byte("a"), Value: nil}, {Key: []byte("a"), Value: nil}})
	if !errors.Is(err, errUnsorted) {
		t.Fatalf("duplicate-key load error = %v", err)
	}
	if err := tr.Put([]byte("x"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	err = bulkLoad(tr, bulkPairs(3))
	if !errors.Is(err, errNotEmpty) {
		t.Fatalf("non-empty load error = %v", err)
	}
}

func TestBulkLoadThenPutAndDelete(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	pairs := bulkPairs(5000)
	if err := bulkLoad(tr, pairs); err != nil {
		t.Fatal(err)
	}
	// The bulk-built tree must accept ordinary mutations afterwards.
	for i := 0; i < 1000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("post%06d", i)), []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 2 {
		if ok, err := tr.Delete(pairs[i].Key); err != nil || !ok {
			t.Fatalf("Delete(%s) = %v, %v", pairs[i].Key, ok, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if got, err := tr.Len(); err != nil || got != 5000+1000-500 {
		t.Fatalf("Len = %d, %v", got, err)
	}
}

// TestCursorUnderEvictionPressure is the regression test for the old
// bufferPool.Get aliasing hazard: with a 16-frame pool, iterating a tree
// much larger than the pool while other reads thrash the LRU must still
// visit every entry exactly once. Under COW the cursor holds decoded
// copies of its descent path, so eviction can never invalidate a live
// iteration.
func TestCursorUnderEvictionPressure(t *testing.T) {
	s := OpenMemWithPoolLimit(16)
	defer s.Close()
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	pairs := bulkPairs(n)
	if err := bulkLoad(tr, pairs); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil { // make everything clean so eviction is live
		t.Fatal(err)
	}
	c, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := rand.New(rand.NewSource(2))
	for i := 0; c.Valid(); i++ {
		if !bytes.Equal(c.Key(), pairs[i].Key) {
			t.Fatalf("entry %d: key %s, want %s", i, c.Key(), pairs[i].Key)
		}
		if v, err := c.Value(); err != nil || !bytes.Equal(v, pairs[i].Value) {
			t.Fatalf("entry %d: value %q, %v", i, v, err)
		}
		// Interleave random point reads to churn the 16-frame LRU.
		for j := 0; j < 3; j++ {
			k := pairs[r.Intn(n)].Key
			if _, ok, err := tr.Get(k); err != nil || !ok {
				t.Fatalf("interleaved Get(%s) = %v, %v", k, ok, err)
			}
		}
		if err := c.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if poolFrames(s.pool) > 16+1 { // limit + at most the frame being read
		t.Fatalf("pool holds %d frames, limit 16", poolFrames(s.pool))
	}
}

// TestConcurrentReadersWithCursors runs many goroutines mixing point reads
// and full scans on one bulk-loaded tree under a tiny pool. Run with -race.
func TestConcurrentReadersWithCursors(t *testing.T) {
	s := OpenMemWithPoolLimit(16)
	defer s.Close()
	tr, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	pairs := bulkPairs(n)
	if err := bulkLoad(tr, pairs); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				for i := 0; i < 300; i++ {
					k := pairs[(i*13+g*7)%n].Key
					if _, ok, err := tr.Get(k); err != nil || !ok {
						errs <- fmt.Errorf("goroutine %d: Get(%s) = %v, %v", g, k, ok, err)
						return
					}
				}
				return
			}
			c, err := tr.First()
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			seen := 0
			for c.Valid() {
				seen++
				if err := c.Next(); err != nil {
					errs <- err
					return
				}
			}
			if seen != n {
				errs <- fmt.Errorf("goroutine %d: scanned %d entries, want %d", g, seen, n)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
