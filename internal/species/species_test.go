package species

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/relstore"
	"repro/internal/seqsim"
)

func newRepo(t *testing.T) *Repo {
	t.Helper()
	db := relstore.OpenMemDB()
	t.Cleanup(func() { db.Close() })
	r, err := NewOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// committed commits every shard and returns the repository as a snapshot
// taken right after reads it; the snapshot closes with the test.
func committed(t testing.TB, r *Repo) *View {
	t.Helper()
	sns := make([]*relstore.Snap, len(r.dbs))
	for i, db := range r.dbs {
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
		sns[i] = db.Snapshot()
		t.Cleanup(sns[i].Close)
	}
	return ViewOnShards(sns, r.router)
}

func TestPutGetDelete(t *testing.T) {
	r := newRepo(t)
	if err := r.Put("gold", "Bha", "seq:ssu", []byte("ACGTACGT")); err != nil {
		t.Fatal(err)
	}
	got, err := committed(t, r).Get("gold", "Bha", "seq:ssu")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ACGTACGT" {
		t.Fatalf("got %q", got)
	}
	// Replace.
	if err := r.Put("gold", "Bha", "seq:ssu", []byte("TTTT")); err != nil {
		t.Fatal(err)
	}
	got, _ = committed(t, r).Get("gold", "Bha", "seq:ssu")
	if string(got) != "TTTT" {
		t.Fatalf("after replace: %q", got)
	}
	ok, err := r.Delete("gold", "Bha", "seq:ssu")
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, err := committed(t, r).Get("gold", "Bha", "seq:ssu"); !errors.Is(err, ErrNoData) {
		t.Fatalf("Get after delete = %v", err)
	}
	if ok, _ := r.Delete("gold", "Bha", "seq:ssu"); ok {
		t.Fatal("double delete reported true")
	}
}

func TestKeyValidation(t *testing.T) {
	r := newRepo(t)
	if err := r.Put("", "a", "b", nil); err == nil {
		t.Fatal("empty tree accepted")
	}
	if err := r.Put("t", "a/b", "c", nil); err == nil {
		t.Fatal("slash in species accepted")
	}
}

func TestListBySpecies(t *testing.T) {
	r := newRepo(t)
	r.Put("gold", "Bha", "seq:ssu", []byte("AAAA"))
	r.Put("gold", "Bha", "trait:eyecolor", []byte("brown"))
	r.Put("gold", "Lla", "seq:ssu", []byte("CCCC"))
	r.Put("other", "Bha", "seq:ssu", []byte("GGGG"))

	recs, err := committed(t, r).List("gold", "Bha")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("List = %d records", len(recs))
	}
	kinds := map[string]bool{}
	for _, rec := range recs {
		if rec.Tree != "gold" || rec.Species != "Bha" {
			t.Fatalf("bad record %+v", rec)
		}
		kinds[rec.Kind] = true
	}
	if !kinds["seq:ssu"] || !kinds["trait:eyecolor"] {
		t.Fatalf("kinds = %v", kinds)
	}
	// A species with no data lists empty.
	recs, err = committed(t, r).List("gold", "Missing")
	if err != nil || len(recs) != 0 {
		t.Fatalf("List missing = %v, %v", recs, err)
	}
}

func TestDeleteTree(t *testing.T) {
	r := newRepo(t)
	r.Put("gold", "Bha", "seq:a", []byte("A"))
	r.Put("gold", "Lla", "seq:a", []byte("C"))
	r.Put("keep", "Bha", "seq:a", []byte("G"))
	n, err := r.DeleteTree("gold")
	if err != nil || n != 2 {
		t.Fatalf("DeleteTree = %d, %v", n, err)
	}
	if _, err := committed(t, r).Get("gold", "Bha", "seq:a"); err == nil {
		t.Fatal("gold data survived")
	}
	if _, err := committed(t, r).Get("keep", "Bha", "seq:a"); err != nil {
		t.Fatalf("keep data lost: %v", err)
	}
}

func TestAlignmentRoundTrip(t *testing.T) {
	r := newRepo(t)
	aln := &seqsim.Alignment{
		Names: []string{"Bha", "Lla", "Syn"},
		Seqs: map[string][]byte{
			"Bha": []byte("ACGT"),
			"Lla": []byte("AGGT"),
			"Syn": []byte("ACGA"),
		},
	}
	n, err := r.PutAlignment("gold", "seq:sim", aln)
	if err != nil || n != 3 {
		t.Fatalf("PutAlignment = %d, %v", n, err)
	}
	v := committed(t, r)
	for _, name := range aln.Names {
		if got, err := v.Get("gold", name, "seq:sim"); err != nil || !bytes.Equal(got, aln.Seqs[name]) {
			t.Fatalf("%s = %q, %v", name, got, err)
		}
	}
	if _, err := v.Get("gold", "Ghost", "seq:sim"); !errors.Is(err, ErrNoData) {
		t.Fatalf("missing species: err = %v", err)
	}
}

// TestViewSeesCommittedRecordsOnly: a put is invisible to a snapshot taken
// before its commit, whenever that snapshot is read, and visible to one taken
// after.
func TestViewSeesCommittedRecordsOnly(t *testing.T) {
	r := newRepo(t)
	if err := r.Put("gold", "Bha", "seq:ssu", []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	sn := r.dbs[0].Snapshot()
	defer sn.Close()
	before := ViewOn(sn)
	if _, err := before.Get("gold", "Bha", "seq:ssu"); !errors.Is(err, ErrNoData) {
		t.Fatalf("uncommitted put visible: err = %v", err)
	}
	after := committed(t, r)
	if got, err := after.Get("gold", "Bha", "seq:ssu"); err != nil || string(got) != "ACGT" {
		t.Fatalf("after commit: %q, %v", got, err)
	}
	if recs, err := after.List("gold", "Bha"); err != nil || len(recs) != 1 {
		t.Fatalf("after commit: List = %v, %v", recs, err)
	}
	if _, err := before.Get("gold", "Bha", "seq:ssu"); !errors.Is(err, ErrNoData) {
		t.Fatalf("old snapshot moved: err = %v", err)
	}
	if recs, err := before.List("gold", "Bha"); err != nil || len(recs) != 0 {
		t.Fatalf("old snapshot moved: List = %v, %v", recs, err)
	}
}

func TestLargeSequencesPersist(t *testing.T) {
	// Sequences "with thousands of characters" must survive the overflow
	// page path end to end.
	r := newRepo(t)
	big := make([]byte, 30_000)
	for i := range big {
		big[i] = "ACGT"[i%4]
	}
	if err := r.Put("gold", "Bha", "seq:genome", big); err != nil {
		t.Fatal(err)
	}
	got, err := committed(t, r).Get("gold", "Bha", "seq:genome")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large sequence corrupted")
	}
}
