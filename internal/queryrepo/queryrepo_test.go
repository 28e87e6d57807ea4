package queryrepo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/relstore"
)

func newRepo(t *testing.T) *Repo {
	t.Helper()
	db := relstore.OpenMemDB()
	t.Cleanup(func() { db.Close() })
	r, err := NewOnShards([]*relstore.DB{db})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// committed commits the repository's database and returns the history as a
// snapshot taken right after reads it; the snapshot closes with the test.
func committed(t testing.TB, r *Repo) *View {
	t.Helper()
	if err := r.dbs[0].Commit(); err != nil {
		t.Fatal(err)
	}
	sn := r.dbs[0].Snapshot()
	t.Cleanup(sn.Close)
	return ViewOnShards([]*relstore.Snap{sn})
}

func TestRecordAndHistory(t *testing.T) {
	r := newRepo(t)
	e1, err := r.Record(0, LCA{A: "Lla", B: "Spy", Tree: "gold"}, "LCA = node 3")
	if err != nil {
		t.Fatal(err)
	}
	if e1.ID != 1 {
		t.Fatalf("first id = %d", e1.ID)
	}
	e2, err := r.Record(0, Project{Species: []string{"Bha", "Lla", "Syn"}, Tree: "gold"}, "3-leaf projection")
	if err != nil {
		t.Fatal(err)
	}
	if e2.ID != 2 {
		t.Fatalf("second id = %d", e2.ID)
	}

	v := committed(t, r)
	hist, err := v.History(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history = %d entries", len(hist))
	}
	if hist[0].ID != 2 || hist[1].ID != 1 {
		t.Fatalf("history not newest-first: %v %v", hist[0].ID, hist[1].ID)
	}
	hist, _ = v.History(context.Background(), 1)
	if len(hist) != 1 || hist[0].Kind != "project" {
		t.Fatalf("limited history = %+v", hist)
	}
}

// TestRerunArgsRoundTrip records one value of every kind and reads each
// back: the entry's Query is the value recorded.
func TestRerunArgsRoundTrip(t *testing.T) {
	r := newRepo(t)
	for _, q := range everyKind {
		e, err := r.Record(0, q, "summary of "+q.Kind())
		if err != nil {
			t.Fatal(err)
		}
		got, err := committed(t, r).Get(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		back, err := got.Query()
		if err != nil {
			t.Fatalf("%s: %v", q.Kind(), err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("%s: Query() = %#v, want %#v", q.Kind(), back, q)
		}
		if got.Summary != "summary of "+q.Kind() || got.Kind != q.Kind() {
			t.Fatalf("entry = %+v", got)
		}
		if got.Time.IsZero() {
			t.Fatal("timestamp missing")
		}
	}
}

// TestHistoryMixedRowSizes records the row mix crimsond sees under mixed
// LCA / clade traffic: runs of ~100 B rows followed by runs of 300-1024 B
// rows (a clade query's species list and summary), the mix that overflowed
// a leaf of the history table when the B+tree split by cell count.
func TestHistoryMixedRowSizes(t *testing.T) {
	db := relstore.OpenMemDB()
	defer db.Close()
	r, err := NewOnShards([]*relstore.DB{db})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	record := func(q Query, summary string) {
		t.Helper()
		if _, err := r.Record(0, q, summary); err != nil {
			t.Fatalf("record #%d (%s, %d B summary): %v", len(want)+1, q.Kind(), len(summary), err)
		}
		want = append(want, summary)
	}
	for round := 0; round < 12; round++ {
		for i := 0; i < 40; i++ {
			record(LCA{A: "Lla", B: "Spy", Tree: "gold"}, "LCA = node 3")
		}
		for i := 0; i < 8; i++ {
			record(Clade{Tree: "gold"}, strings.Repeat("s", 300+(round*8+i)*7%700))
		}
	}
	hist, err := committed(t, r).History(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != len(want) {
		t.Fatalf("history has %d entries, want %d", len(hist), len(want))
	}
	for i, e := range hist { // newest first
		if w := want[len(want)-1-i]; e.Summary != w {
			t.Fatalf("entry #%d: summary of %d B, want %d B", e.ID, len(e.Summary), len(w))
		}
	}
	if err := db.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestGetMissing(t *testing.T) {
	r := newRepo(t)
	if _, err := committed(t, r).Get(42); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("err = %v", err)
	}
	// The internal counter row must not leak.
	r.Record(0, Delete{Tree: "x"}, "")
	if _, err := committed(t, r).Get(-1); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("counter row leaked: %v", err)
	}
}

func TestByKind(t *testing.T) {
	r := newRepo(t)
	r.Record(0, LCA{}, "1")
	r.Record(0, Sample{}, "2")
	r.Record(0, LCA{}, "3")
	got, err := committed(t, r).ByKind(context.Background(), "lca")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Summary != "1" || got[1].Summary != "3" {
		t.Fatalf("ByKind = %+v", got)
	}
}

func TestIDsPersistAcrossHandles(t *testing.T) {
	db := relstore.OpenMemDB()
	defer db.Close()
	r1, err := NewOnShards([]*relstore.DB{db})
	if err != nil {
		t.Fatal(err)
	}
	r1.Record(0, Delete{Tree: "x"}, "")
	r2, err := NewOnShards([]*relstore.DB{db})
	if err != nil {
		t.Fatal(err)
	}
	e, err := r2.Record(0, Delete{Tree: "y"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != 2 {
		t.Fatalf("id from second handle = %d, want 2", e.ID)
	}
}

// TestConcurrentRecordersAndReaders races many Record goroutines against
// readers that commit, open a snapshot and run History/ByKind on it (run
// under -race in CI), and verifies the allocated IDs are exactly 1..N with
// no duplicates.
func TestConcurrentRecordersAndReaders(t *testing.T) {
	r := newRepo(t)
	const (
		recorders   = 8
		perRecorder = 25
	)
	var wg sync.WaitGroup
	ids := make([][]int64, recorders)
	errs := make([]error, recorders)
	stop := make(chan struct{})

	// Readers commit whatever the recorders have written so far and hammer
	// History and ByKind on a snapshot of it while the recorders run.
	var readerWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.dbs[0].Commit(); err != nil {
					t.Errorf("reader %d: Commit: %v", g, err)
					return
				}
				sn := r.dbs[0].Snapshot()
				_, herr := ViewOnShards([]*relstore.Snap{sn}).History(context.Background(), 10)
				_, kerr := ViewOnShards([]*relstore.Snap{sn}).ByKind(context.Background(), "lca")
				sn.Close()
				if herr != nil || kerr != nil {
					t.Errorf("reader %d: History: %v, ByKind: %v", g, herr, kerr)
					return
				}
			}
		}(g)
	}

	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perRecorder; i++ {
				var q Query = LCA{A: fmt.Sprint(g), B: fmt.Sprint(i), Tree: "gold"}
				if i%2 == 1 {
					q = Project{Species: []string{fmt.Sprint(g), fmt.Sprint(i)}, Tree: "gold"}
				}
				e, err := r.Record(0, q, "x")
				if err != nil {
					errs[g] = err
					return
				}
				ids[g] = append(ids[g], e.ID)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	seen := make(map[int64]bool)
	for g, list := range ids {
		if errs[g] != nil {
			t.Fatalf("recorder %d: %v", g, errs[g])
		}
		last := int64(0)
		for _, id := range list {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
			if id <= last {
				t.Fatalf("recorder %d saw non-increasing ids: %d after %d", g, id, last)
			}
			last = id
		}
	}
	total := recorders * perRecorder
	if len(seen) != total {
		t.Fatalf("allocated %d ids, want %d", len(seen), total)
	}
	for id := int64(1); id <= int64(total); id++ {
		if !seen[id] {
			t.Fatalf("id space has a hole at %d", id)
		}
	}

	// The history agrees: every entry present, newest first.
	all, err := committed(t, r).History(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != total {
		t.Fatalf("history has %d entries, want %d", len(all), total)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID <= all[i].ID {
			t.Fatalf("history out of order at %d: %d then %d", i, all[i-1].ID, all[i].ID)
		}
	}
}

// TestViewSeesCommittedRecordsOnly: a record is invisible to a snapshot
// taken before its commit — and to one taken before the commit but read
// after it — and visible to a snapshot taken after.
func TestViewSeesCommittedRecordsOnly(t *testing.T) {
	r := newRepo(t)
	if _, err := r.Record(0, LCA{}, "first"); err != nil {
		t.Fatal(err)
	}
	before := r.dbs[0].Snapshot()
	defer before.Close()
	count := func(v *View) int {
		t.Helper()
		hist, err := v.History(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(hist)
	}
	if n := count(ViewOnShards([]*relstore.Snap{before})); n != 0 {
		t.Fatalf("uncommitted record visible: history of %d", n)
	}
	after := committed(t, r)
	if n := count(after); n != 1 {
		t.Fatalf("history after commit = %d entries, want 1", n)
	}
	if _, err := after.Get(1); err != nil {
		t.Fatalf("Get(1) after commit: %v", err)
	}
	if n := count(ViewOnShards([]*relstore.Snap{before})); n != 0 {
		t.Fatalf("old snapshot moved: history of %d", n)
	}
	if _, err := ViewOnShards([]*relstore.Snap{before}).Get(1); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("old snapshot Get(1): err = %v, want ErrNoEntry", err)
	}
}
