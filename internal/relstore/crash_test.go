package relstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

func crashSchema(name string) Schema {
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

func fillCrashTable(t *testing.T, db *DB, name string, rows int) {
	t.Helper()
	tab, err := db.CreateTable(crashSchema(name))
	if err != nil {
		t.Fatal(err)
	}
	// Values above the B+tree's inline limit (1 KiB) force overflow chains,
	// so the page accounting's chain walk is exercised too.
	for i := 0; i < rows; i++ {
		if err := tab.Insert(Tuple{Int(int64(i)), Blob(crashPayload())}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
}

func crashPayload() []byte {
	payload := make([]byte, 2048) // twice the inline limit
	for i := range payload {
		payload[i] = byte(i)
	}
	return payload
}

// TestCrashLeaksNothing kills the process (simulated by abandoning the
// handle) while a dropped table's pages are still pending: a snapshot pins
// the epoch, a 200-row table is dropped and the drop commits, and the crash
// comes before the snapshot closes. The drop's commit listed the pages, so
// the reopen passes Check — every page reachable or listed, with no reclaim
// step — keeps the live table whole, and recreating the dropped table
// reuses its pages instead of growing the file.
func TestCrashLeaksNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.db")
	db, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	fillCrashTable(t, db, "keep", 50)
	fillCrashTable(t, db, "victim", 200)
	sn := db.Snapshot()
	if err := db.DropTable("victim"); err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.MVCC().PendingReclaimPages; got == 0 {
		t.Fatal("drop retired no pages; the crash scenario needs pending pages")
	}
	pagesAtCrash := db.Store().PageCount()
	_ = sn // crash: neither the snapshot nor the database is ever closed

	reopened, err := OpenDB(path)
	if err != nil {
		t.Fatalf("reopening after simulated crash: %v", err)
	}
	defer reopened.Close()
	if err := reopened.Check(); err != nil {
		t.Fatalf("integrity after the crash: %v", err)
	}
	keep, err := reopened.Table("keep")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := keep.view.Len(); err != nil || n != 50 {
		t.Fatalf("keep has %d rows after reopen, want 50 (err=%v)", n, err)
	}
	row, ok, err := keep.Get(Int(25))
	if err != nil || !ok || !bytes.Equal(tup(t, row)[1].Bytes(), crashPayload()) {
		t.Fatalf("keep row 25 after reopen: ok=%v err=%v", ok, err)
	}
	fillCrashTable(t, reopened, "victim", 200)
	if got := reopened.Store().PageCount(); got > pagesAtCrash {
		t.Fatalf("page file grew from %d to %d pages across crash+reopen+reload; the drop's pages leaked", pagesAtCrash, got)
	}
	if err := reopened.Check(); err != nil {
		t.Fatalf("integrity after the reload: %v", err)
	}
}

// TestReopenWritesNothing: opening a cleanly closed database and closing
// it again, with no mutation, leaves the page file and the WAL
// byte-identical. Nothing is stamped at open or close.
func TestReopenWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.db")
	db, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	fillCrashTable(t, db, "tab", 30)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	read := func() (page, wal []byte) {
		t.Helper()
		page, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wal, err = os.ReadFile(path + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		return page, wal
	}
	page, wal := read()
	for i := 0; i < 2; i++ {
		again, err := OpenDB(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := again.Close(); err != nil {
			t.Fatal(err)
		}
		if p, w := read(); !bytes.Equal(p, page) || !bytes.Equal(w, wal) {
			t.Fatalf("reopen %d rewrote the files: page file equal %v, WAL equal %v", i, bytes.Equal(p, page), bytes.Equal(w, wal))
		}
	}
}

// TestOpensUncleanV3File opens the page file and WAL a crash left in the
// version-3 format (../storage/testdata/v3-unclean.db, written by that
// format's code: a 20-row table "keep", then a 12-row table of 2 500-byte
// values dropped and committed while a snapshot pinned it). Version 3
// listed reusable pages only, so the dropped table's pages were on no list.
// The open upgrades the file once: Check accounts for every page, the kept
// rows read back, a table of the dropped one's shape fits in its pages, and
// the file reopens as version 4 with every page accounted.
func TestOpensUncleanV3File(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v3.db")
	for _, suffix := range []string{"", ".wal"} {
		data, err := os.ReadFile(filepath.Join("..", "storage", "testdata", "v3-unclean.db"+suffix))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+suffix, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("integrity after the upgrade: %v", err)
	}
	keep, err := db.Table("keep")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := keep.view.Len(); err != nil || n != 20 {
		t.Fatalf("keep has %d rows, want 20 (err=%v)", n, err)
	}
	pages := db.Store().PageCount()
	tab, err := db.CreateTable(Schema{
		Name:    "victim",
		Columns: []Column{{Name: "id", Type: TInt}, {Name: "payload", Type: TBytes}},
		Key:     "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := tab.Insert(Tuple{Int(int64(i)), Blob(bytes.Repeat([]byte{byte(i)}, 2500))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.Store().PageCount(); got > pages {
		t.Fatalf("the page file grew from %d to %d pages; the upgrade did not list the dropped table's pages", pages, got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(img[8:]); v != 4 {
		t.Fatalf("the upgraded file's meta page is version %d, want 4", v)
	}
	db, err = OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Check(); err != nil {
		t.Fatalf("integrity after reopening the upgraded file: %v", err)
	}
}
