package relstore

import (
	"fmt"
	"strings"
	"testing"
)

// publish commits what a test wrote to tab's trees behind its back — Check
// reads committed state.
func publish(t *testing.T, tab *Table) {
	t.Helper()
	tab.db.mu.Lock()
	err := tab.db.noteRootsLocked(tab)
	tab.db.mu.Unlock()
	if err == nil {
		err = tab.db.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckCleanDB(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(speciesSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if err := tab.Insert(speciesRow(i, fmt.Sprintf("sp%03d", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Mutate a bit: updates and deletes must leave a consistent state.
	for i := int64(0); i < 50; i++ {
		if err := tab.Put(speciesRow(i, fmt.Sprintf("renamed%03d", i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(100); i < 150; i++ {
		if _, err := tab.Delete(Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check on clean db: %v", err)
	}
}

func TestCheckDetectsMissingIndexEntry(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, _ := db.CreateTable(speciesSchema())
	for i := int64(0); i < 20; i++ {
		tab.Insert(speciesRow(i, fmt.Sprintf("sp%03d", i), float64(i)))
	}
	// Corrupt: remove one index entry behind the table's back.
	row, _, err := tab.Get(Int(7))
	if err != nil {
		t.Fatal(err)
	}
	ix := tab.view.schema.Indexes[0]
	if _, err := tab.view.indexes[ix.Name].Delete(tab.view.indexKey(ix, tup(t, row))); err != nil {
		t.Fatal(err)
	}
	publish(t, tab)
	err = db.Check()
	if err == nil {
		t.Fatal("Check missed a missing index entry")
	}
	if !strings.Contains(err.Error(), "missing from index") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckDetectsDanglingIndexEntry(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, _ := db.CreateTable(speciesSchema())
	for i := int64(0); i < 20; i++ {
		tab.Insert(speciesRow(i, fmt.Sprintf("sp%03d", i), float64(i)))
	}
	// Corrupt: delete a row from the primary only.
	if _, err := tab.view.primary.Delete(EncodeKey(Int(5))); err != nil {
		t.Fatal(err)
	}
	publish(t, tab)
	err := db.Check()
	if err == nil {
		t.Fatal("Check missed a dangling index entry")
	}
	if !strings.Contains(err.Error(), "dangl") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckDetectsCorruptRow(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, _ := db.CreateTable(speciesSchema())
	tab.Insert(speciesRow(1, "sp", 0))
	// Corrupt: overwrite the stored row bytes with garbage.
	if err := tab.view.primary.Put(EncodeKey(Int(1)), []byte{0xFF, 0xEE}); err != nil {
		t.Fatal(err)
	}
	publish(t, tab)
	if err := db.Check(); err == nil {
		t.Fatal("Check missed a corrupt row")
	}
}
