package storage

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// fillTree inserts n deterministic key/value pairs; a sprinkling of values
// is oversized so the overflow read path is exercised too.
func fillTree(t *testing.T, bt *BTree, n int) map[string][]byte {
	t.Helper()
	want := make(map[string][]byte, n)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		var val []byte
		if i%157 == 0 {
			val = make([]byte, PageSize+512) // forces an overflow chain
			r.Read(val)
		} else {
			val = make([]byte, 8+r.Intn(40))
			r.Read(val)
		}
		if err := bt.Put(key, val); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
		want[string(key)] = val
	}
	return want
}

// counterCtx returns a context carrying a fresh per-request counter set.
func counterCtx() (context.Context, *obs.Counters) {
	root := obs.NewRoot("test")
	return obs.ContextWithSpan(context.Background(), root), root.Counters()
}

func TestGetBatchMatchesGet(t *testing.T) {
	// The axis is the buffer pool's size in bytes. A pool of 0 bytes is
	// raised to the pool's floor of 16 frames, so batched descents run
	// under eviction; 8 MiB (2048 frames) holds the whole tree.
	for _, poolBytes := range []int{0, 8 << 20} {
		t.Run(fmt.Sprintf("cache=%d", poolBytes), func(t *testing.T) {
			s := OpenMemWithPoolLimit(poolBytes / PageSize)
			defer s.Close()
			bt, err := NewBTree(s)
			if err != nil {
				t.Fatal(err)
			}
			want := fillTree(t, bt, 2500)

			// Query mix: present keys in random order, absent keys, and
			// duplicates — results must be positional and match Get.
			r := rand.New(rand.NewSource(7))
			var keys [][]byte
			for i := 0; i < 400; i++ {
				keys = append(keys, []byte(fmt.Sprintf("key-%06d", r.Intn(2500))))
			}
			keys = append(keys, []byte("absent-aaa"), []byte("key-999999"), []byte(""))
			keys = append(keys, keys[0], keys[1]) // duplicates

			vals, found, err := bt.GetBatchC(context.Background(), keys, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				wv, wok := want[string(k)]
				if found[i] != wok {
					t.Fatalf("keys[%d]=%q found=%v want %v", i, k, found[i], wok)
				}
				if wok && !bytes.Equal(vals[i], wv) {
					t.Fatalf("keys[%d]=%q value mismatch", i, k)
				}
			}
		})
	}
}

func TestGetBatchSharesDescents(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	fillTree(t, bt, 3000)

	keys := make([][]byte, 600)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i*5))
	}
	ctx, c := counterCtx()
	if _, _, err := bt.GetBatchC(ctx, keys, c); err != nil {
		t.Fatal(err)
	}
	descents := c.Get(obs.CtrBTreeDescents)
	if descents == 0 || descents >= int64(len(keys)) {
		t.Fatalf("batch of %d keys took %d descents, want one per leaf (< %d)",
			len(keys), descents, len(keys))
	}
}

func TestGetBatchHonorsContext(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	fillTree(t, bt, 1000)
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := bt.GetBatchC(ctx, keys, nil); err == nil {
		t.Fatal("batch read on a cancelled context succeeded")
	}
}
