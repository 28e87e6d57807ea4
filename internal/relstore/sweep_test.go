package relstore

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

func sweepSchema(name string) Schema {
	return Schema{
		Name: name,
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "payload", Type: TBytes},
		},
		Key: "id",
		Indexes: []Index{
			{Name: "by_id", Columns: []string{"id"}},
		},
	}
}

func fillSweepTable(t *testing.T, db *DB, name string, rows int) {
	t.Helper()
	tab, err := db.CreateTable(sweepSchema(name))
	if err != nil {
		t.Fatal(err)
	}
	// Values above MaxInlineValue force overflow chains, so the sweep's
	// chain-walking is exercised too.
	payload := make([]byte, storage.MaxInlineValue*2)
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < rows; i++ {
		if err := tab.Insert(Tuple{Int(int64(i)), Blob(payload)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepReclaimsCrashLeakedPages kills the process (simulated by
// abandoning the handle) while retired pages are still pending
// reclamation: a snapshot pins the epoch, a big table is dropped, the drop
// commits — and the crash happens before the snapshot closes, so the
// retired pages never reach the free list. Reopening must sweep them back:
// recreating the same table must not grow the page file.
func TestSweepReclaimsCrashLeakedPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.db")
	db, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	fillSweepTable(t, db, "victim", 200)

	// Pin the epoch so the dropped pages sit on the pending retire list
	// instead of returning to the free list.
	sn := db.Snapshot()
	if err := db.DropTable("victim"); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.MVCC().PendingReclaimPages; got == 0 {
		t.Fatal("drop retired no pages; the crash scenario needs a pending retire list")
	}
	pagesAtCrash := db.Store().PageCount()
	_ = sn // crash: neither the snapshot nor the database is ever closed

	reopened, err := OpenDB(path)
	if err != nil {
		t.Fatalf("reopening after simulated crash: %v", err)
	}
	defer reopened.Close()

	// The sweep must have returned the leaked pages to the free list:
	// loading the same amount of data again reuses them instead of growing
	// the file.
	fillSweepTable(t, reopened, "victim", 200)
	if got := reopened.Store().PageCount(); got > pagesAtCrash {
		t.Fatalf("page file grew from %d to %d pages across crash+reopen+reload; leaked pages were not swept", pagesAtCrash, got)
	}
	if err := reopened.Check(); err != nil {
		t.Fatalf("integrity after sweep: %v", err)
	}
}

// TestSweepKeepsLiveData crash-abandons a multi-table database (overflow
// values included) so the reopen actually sweeps, and verifies the sweep
// frees nothing it shouldn't: every row of every table is still readable
// and the integrity check passes.
func TestSweepKeepsLiveData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.db")
	db, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		fillSweepTable(t, db, fmt.Sprintf("tab%d", i), 50)
	}
	// Crash: committed but never closed, so the clean-shutdown flag stays
	// unset and the reopen runs the sweep over live data.

	reopened, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Store().WasCleanShutdown() {
		t.Fatal("abandoned database reopened as cleanly shut down; the sweep under test never ran")
	}
	defer reopened.Close()
	for i := 0; i < 3; i++ {
		tab, err := reopened.Table(fmt.Sprintf("tab%d", i))
		if err != nil {
			t.Fatal(err)
		}
		n, err := tab.view.Len()
		if err != nil {
			t.Fatal(err)
		}
		if n != 50 {
			t.Fatalf("tab%d has %d rows after reopen, want 50", i, n)
		}
		row, ok, err := tab.Get(Int(25))
		if err != nil || !ok {
			t.Fatalf("tab%d row 25 unreadable after sweep: ok=%v err=%v", i, ok, err)
		}
		if n := len(tup(t, row)[1].Bytes()); n != storage.MaxInlineValue*2 {
			t.Fatalf("tab%d overflow payload truncated to %d bytes", i, n)
		}
	}
	if err := reopened.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanShutdownSkipsSweep pins the clean-shutdown flag protocol: a
// closed database reopens with the flag set (no sweep needed), the flag
// is cleared durably at open so a subsequent crash re-arms the sweep, and
// an abandoned handle therefore reads as unclean.
func TestCleanShutdownSkipsSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.db")
	db, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	fillSweepTable(t, db, "tab", 30)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.Store().WasCleanShutdown() {
		t.Fatal("cleanly closed database reopened as unclean")
	}
	// Crash this handle without closing: the open cleared the flag
	// durably, so the next open must see an unclean file and sweep.
	again, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Store().WasCleanShutdown() {
		t.Fatal("crashed session left the clean-shutdown flag set; leaks would never be swept")
	}
	tab, err := again.Table("tab")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tab.view.Len(); err != nil || n != 30 {
		t.Fatalf("tab has %d rows after flag round trip, want 30 (err=%v)", n, err)
	}
}
