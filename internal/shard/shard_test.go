package shard

import (
	"errors"
	"fmt"
	"testing"
)

// TestPlacementDeterministic pins the placement function: the same name
// must land on the same shard across router instances (and, because the
// hash is FNV-1a over the bytes, across processes and reopens — the
// on-disk layout depends on it).
func TestPlacementDeterministic(t *testing.T) {
	r1, err := NewRouter(8)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRouter(8)
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("tree-%d", i)
		a, b := r1.Place(name), r2.Place(name)
		if a != b {
			t.Fatalf("placement of %q differs between router instances: %d vs %d", name, a, b)
		}
		if a < 0 || a >= 8 {
			t.Fatalf("placement of %q = %d, out of range", name, a)
		}
	}
	// Golden values: changing the hash or modulus scheme would strand
	// every tree of every existing sharded repository on the wrong shard.
	golden := map[string]int{"gold": 3, "flux": 2, "tree": 5, "a": 4}
	for name, want := range golden {
		if got := r1.Place(name); got != want {
			t.Fatalf("Place(%q) = %d, want %d — the placement function changed; existing sharded repositories would break", name, got, want)
		}
	}
}

func TestPlacementCoversAllShards(t *testing.T) {
	r, _ := NewRouter(4)
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		seen[r.Place(fmt.Sprintf("t%d", i))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("100 names covered only %d of 4 shards", len(seen))
	}
}

func TestRouterRejectsBadCounts(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewRouter(n); err == nil {
			t.Fatalf("NewRouter(%d) accepted", n)
		}
	}
}

func TestManifestRoundTripAndValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("missing manifest: err = %v, want ErrNoManifest", err)
	}
	if err := WriteManifest(dir, NewManifest(4)); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 4 || m.Layout != layout {
		t.Fatalf("manifest round trip = %+v", m)
	}
	if err := m.Validate(0); err != nil {
		t.Fatalf("auto-detect validation failed: %v", err)
	}
	if err := m.Validate(4); err != nil {
		t.Fatalf("matching validation failed: %v", err)
	}
	if err := m.Validate(2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("mismatch validation: err = %v, want ErrShardMismatch", err)
	}
}
