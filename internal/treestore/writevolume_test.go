package treestore

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relstore"
	"repro/internal/species"
	"repro/internal/treegen"
)

// writeVolume runs write and returns the pages it copied on write and the
// bytes it appended to the WAL, from the process-wide engine counters (the
// tests of a package run one at a time, and a checkpoint appends nothing).
func writeVolume(t *testing.T, write func() error) (cow, wal int64) {
	t.Helper()
	cow0, wal0 := obs.Engine.Get(obs.CtrCOWPages), obs.Engine.Get(obs.CtrWALBytes)
	if err := write(); err != nil {
		t.Fatal(err)
	}
	return obs.Engine.Get(obs.CtrCOWPages) - cow0, obs.Engine.Get(obs.CtrWALBytes) - wal0
}

// TestSpeciesPutWriteVolume gates what a 256-byte species put costs on a
// shard that holds a 20k-leaf tree and 4 096 species records: the put copies
// one root-to-leaf path of the species relation and the catalog's, and its
// commit logs those pages and the meta page — ≤ 5 pages copied, ≤ 25 000 WAL
// bytes. While by_species and by_tree were kept beside the primary key the
// same put copied 10 pages and logged 45 288 bytes.
func TestSpeciesPutWriteVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-leaf tree load")
	}
	db, err := relstore.OpenDB(filepath.Join(t.TempDir(), "crimson.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := NewOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := species.NewOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	gold, err := treegen.Yule(20000, 1.0, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("gold", gold, core.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	names := gold.LeafNames()
	seq := bytes.Repeat([]byte("ACGT"), 64)
	for _, name := range names[:4096] {
		if err := repo.Put("gold", name, "seq:gate", seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	cow, wal := writeVolume(t, func() error {
		if err := repo.Put("gold", names[2048], "seq:gate", bytes.Repeat([]byte("TGCA"), 64)); err != nil {
			return err
		}
		return db.Commit()
	})
	t.Logf("256-byte put: %d pages copied on write, %d WAL bytes", cow, wal)
	if cow > 5 || wal > 25000 {
		t.Fatalf("256-byte put copied %d pages and logged %d WAL bytes, want <= 5 and <= 25000", cow, wal)
	}
}

// TestLoadWriteVolume gates a 2k-leaf Yule load: its node relation is three
// B+trees (the primary key, by_name, by_dist) and the load logs ≤ 600 000
// WAL bytes. With by_parent as a fourth tree the load logged 712–720 KB.
func TestLoadWriteVolume(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "crimson.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gold, err := treegen.Yule(2000, 1.0, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	_, wal := writeVolume(t, func() error {
		_, err := s.Load("y2k", gold, core.DefaultFanout, nil)
		return err
	})
	t.Logf("2k-leaf load: %d WAL bytes", wal)
	if wal > 600000 {
		t.Fatalf("2k-leaf load logged %d WAL bytes, want <= 600000", wal)
	}
	if trees := 1 + len(openTreeOf(t, s, "y2k").nodes.Schema().Indexes); trees != 3 {
		t.Fatalf("the node relation is %d B+trees, want 3", trees)
	}
}
