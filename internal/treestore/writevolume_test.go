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
	"repro/internal/storage"
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
	s, err := newOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := species.NewOnShards([]*relstore.DB{db}, oneShard)
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

// TestDropWriteVolume gates what a dropped tree costs. Its pages are listed
// as ids by the drop's own commit, which logs the meta page (and, past the
// meta page's room, a trunk page per 249 ids), never the pages themselves.
// After a 2k-leaf drop the next 256-byte species put logs ≤ 25 000 WAL
// bytes and a 2k-leaf reload into the freed pages ≤ 590 000; a 20k-leaf
// drop is one commit of ≤ 10 pages (8; when the list held reusable ids
// only, the drop and the commit after it logged 8 between them). When each
// freed page was logged as a link image, the put logged 572 136 bytes (the
// 139 freed pages rode in its commit) and the 20k drop's commits 1 371
// pages; the reload logged 572 136 bytes either way.
func TestDropWriteVolume(t *testing.T) {
	db, err := relstore.OpenDB(filepath.Join(t.TempDir(), "crimson.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := newOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := species.NewOnShards([]*relstore.DB{db}, oneShard)
	if err != nil {
		t.Fatal(err)
	}
	gold, err := treegen.Yule(2000, 1.0, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("keep", gold, core.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("drop", gold, core.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	// The drop's commit publishes; its reclaim frees the tree's pages,
	// durable at the next commit.
	if err := s.Delete("drop"); err != nil {
		t.Fatal(err)
	}
	name := gold.LeafNames()[7]
	_, put := writeVolume(t, func() error {
		if err := repo.Put("keep", name, "seq:gate", bytes.Repeat([]byte("ACGT"), 64)); err != nil {
			return err
		}
		return db.Commit()
	})
	_, reload := writeVolume(t, func() error {
		_, err := s.Load("drop", gold, core.DefaultFanout, nil)
		return err
	})
	t.Logf("after a 2k-leaf drop: a 256-byte put logs %d WAL bytes, a 2k-leaf reload %d", put, reload)
	if put > 25000 || reload > 590000 {
		t.Fatalf("after a 2k-leaf drop a put logged %d and a reload %d WAL bytes, want <= 25000 and <= 590000", put, reload)
	}
	if testing.Short() {
		return
	}
	big, err := treegen.Yule(20000, 1.0, rand.New(rand.NewSource(44)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("big", big, core.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	var frames, commits int
	db.Store().SetCommitHook(func(b storage.ReplBatch) { frames, commits = frames+len(b.Pages), commits+1 })
	if err := s.Delete("big"); err != nil {
		t.Fatal(err)
	}
	db.Store().SetCommitHook(nil)
	t.Logf("a 20k-leaf drop logs %d pages in %d commits", frames, commits)
	if pending := db.MVCC().PendingReclaimPages; pending != 0 || commits != 1 || frames > 10 {
		t.Fatalf("a 20k-leaf drop logged %d pages in %d commits (%d still pending reclamation), want one commit of <= 10", frames, commits, pending)
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
}
