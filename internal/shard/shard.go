// Package shard partitions Crimson's repository across N independent
// storage shards. Each shard is a complete relational database — its own
// page file, WAL, buffer pool and epoch machinery — living in a per-shard
// directory, and trees are placed on shards by a deterministic hash of the
// tree name. Because trees are the unit of placement and every tree's
// relations live wholly on one shard, the public repository API is
// unchanged: a router maps each tree-scoped operation to its shard, and
// cross-shard operations (listing, integrity checks, snapshots) fan out
// and merge.
//
// The shard count is fixed at creation and persisted in a manifest file,
// so reopening validates the layout instead of silently scattering trees
// under a different hash modulus.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/relstore"
)

// layout is the placement scheme recorded in the manifest. There is one
// scheme today; the field exists so a future range- or directory-based
// placement can coexist with hashed layouts.
const layout = "hash/fnv1a64"

// manifestName is the manifest's file name inside a sharded repository
// directory.
const manifestName = "crimson-manifest.json"

// ErrShardMismatch is returned when a repository's manifest disagrees with
// the shard count the caller asked for.
var ErrShardMismatch = errors.New("shard: manifest shard count mismatch")

// ErrNoManifest is returned when a directory holds no readable manifest.
var ErrNoManifest = errors.New("shard: no manifest")

// Router deterministically places tree names on shards. The placement is a
// pure function of (name, shard count): the same name lands on the same
// shard across processes and reopens, which is what lets the on-disk
// layout be reopened without any per-tree placement table.
type Router struct {
	n int
}

// NewRouter returns a router over n shards (n >= 1).
func NewRouter(n int) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d, want >= 1", n)
	}
	return &Router{n: n}, nil
}

// N reports the shard count.
func (r *Router) N() int { return r.n }

// Place returns the shard index for a tree name: FNV-1a over the name,
// reduced mod N. Stable across processes and Go versions.
func (r *Router) Place(name string) int {
	if r.n == 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	return int(h.Sum64() % uint64(r.n))
}

// manifest is the persisted description of a sharded repository layout.
type manifest struct {
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	Layout  string `json:"layout"`
}

// manifestVersion is the current manifest format version.
const manifestVersion = 1

// NewManifest returns a manifest for n shards under the current layout.
func NewManifest(n int) manifest {
	return manifest{Version: manifestVersion, Shards: n, Layout: layout}
}

// WriteManifest persists the manifest into dir.
func WriteManifest(dir string, m manifest) error {
	enc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	return os.WriteFile(filepath.Join(dir, manifestName), enc, 0o644)
}

// ReadManifest loads the manifest from dir. A missing file reports
// ErrNoManifest so callers can distinguish "not a sharded repository" from
// a corrupt one.
func ReadManifest(dir string) (manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return manifest{}, fmt.Errorf("%w in %s", ErrNoManifest, dir)
		}
		return manifest{}, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifest{}, fmt.Errorf("shard: parsing manifest in %s: %w", dir, err)
	}
	if m.Version != manifestVersion {
		return manifest{}, fmt.Errorf("shard: manifest version %d in %s, want %d", m.Version, dir, manifestVersion)
	}
	if m.Shards < 1 {
		return manifest{}, fmt.Errorf("shard: manifest in %s declares %d shards", dir, m.Shards)
	}
	if m.Layout != layout {
		return manifest{}, fmt.Errorf("shard: manifest layout %q in %s, want %q", m.Layout, dir, layout)
	}
	return m, nil
}

// Validate checks a requested shard count against the manifest. want == 0
// means "whatever the manifest says".
func (m manifest) Validate(want int) error {
	if want != 0 && want != m.Shards {
		return fmt.Errorf("%w: repository has %d shards, --shards asked for %d", ErrShardMismatch, m.Shards, want)
	}
	return nil
}

// Dir returns the directory of shard i inside a sharded repository.
func Dir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// PageFile returns the page-file path of shard i (its WAL lives next to it
// at the storage layer's usual "+.wal" suffix).
func PageFile(root string, i int) string {
	return filepath.Join(Dir(root, i), "crimson.db")
}

// CheckAll verifies the integrity of every shard, wrapping failures with
// the shard index so fsck output points at the broken shard.
func CheckAll(dbs []*relstore.DB) error {
	for i, db := range dbs {
		if err := db.Check(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// CloseAll closes every shard, continuing past failures and returning the
// joined error: one shard's broken close must not leave the other shards'
// WALs unflushed.
func CloseAll(dbs []*relstore.DB) error {
	var errs []error
	for i, db := range dbs {
		if err := db.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
