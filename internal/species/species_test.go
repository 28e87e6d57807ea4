package species

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/relstore"
	"repro/internal/seqsim"
	"repro/internal/shard"
)

// oneShard routes every tree to the one database of a single-shard repository.
var oneShard, _ = shard.NewRouter(1)

func newRepo(t *testing.T) *Repo {
	t.Helper()
	db := relstore.OpenMemDB()
	t.Cleanup(func() { db.Close() })
	r, err := NewOnShards([]*relstore.DB{db}, oneShard)
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
	before := ViewOnShards([]*relstore.Snap{sn}, r.router)
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

// TestOldSpeciesSchemaStillWorks: a species_data table created before list
// and delete-tree became primary-key ranges still carries the two secondary
// indexes it was created with. It answers Get and List, and DeleteTree
// removes what it removes on a table created now; and its writer keeps both
// indexes consistent through puts, replacements and deletes (Check after
// every commit).
func TestOldSpeciesSchemaStillWorks(t *testing.T) {
	oldDB := relstore.OpenMemDB()
	defer oldDB.Close()
	if _, err := oldDB.CreateTable(relstore.Schema{
		Name: tableName,
		Columns: []relstore.Column{
			{Name: "key", Type: relstore.TString},
			{Name: "tree", Type: relstore.TString},
			{Name: "species", Type: relstore.TString},
			{Name: "kind", Type: relstore.TString},
			{Name: "data", Type: relstore.TBytes},
		},
		Key: "key",
		Indexes: []relstore.Index{
			{Name: "by_species", Columns: []string{"tree", "species"}},
			{Name: "by_tree", Columns: []string{"tree"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	old, err := NewOnShards([]*relstore.DB{oldDB}, oneShard)
	if err != nil {
		t.Fatal(err)
	}
	repos := []*Repo{old, newRepo(t)}
	trees, sps := []string{"gold", "gold2", "keep"}, []string{"Bh", "Bha", "Lla"}
	// answers renders everything a reader can ask of the records below. A
	// list must hold exactly the records Get finds: "Bh" and "gold" are
	// prefixes of other names.
	answers := func(r *Repo) string {
		v := committed(t, r)
		var b strings.Builder
		for _, tree := range trees {
			for _, sp := range sps {
				recs, err := v.List(tree, sp)
				fmt.Fprintf(&b, "%s/%s: %v %v\n", tree, sp, recs, err)
				found := 0
				for _, kind := range []string{"seq:a", "seq:b", "trait:x"} {
					data, err := v.Get(tree, sp, kind)
					fmt.Fprintf(&b, "  %s %q %v\n", kind, data, err != nil)
					if err == nil {
						found++
					}
				}
				for _, rec := range recs {
					if rec.Tree != tree || rec.Species != sp {
						t.Fatalf("List(%s, %s) holds %s/%s", tree, sp, rec.Tree, rec.Species)
					}
				}
				if len(recs) != found {
					t.Fatalf("List(%s, %s) = %d records, Get finds %d", tree, sp, len(recs), found)
				}
			}
		}
		return b.String()
	}
	steps := []struct {
		name string
		do   func(r *Repo) (any, error)
	}{
		{"puts", func(r *Repo) (any, error) {
			for i, tree := range trees {
				for j, sp := range sps {
					for k, kind := range []string{"seq:a", "seq:b", "trait:x"} {
						if err := r.Put(tree, sp, kind, []byte{byte(i), byte(j), byte(k)}); err != nil {
							return nil, err
						}
					}
				}
			}
			return nil, nil
		}},
		{"replace", func(r *Repo) (any, error) { return nil, r.Put("gold", "Bha", "seq:b", []byte("new")) }},
		{"delete", func(r *Repo) (any, error) { return r.Delete("gold2", "Lla", "trait:x") }},
		{"delete absent", func(r *Repo) (any, error) { return r.Delete("gold2", "Lla", "trait:x") }},
		{"delete tree", func(r *Repo) (any, error) { return r.DeleteTree("gold") }},
		{"delete tree again", func(r *Repo) (any, error) { return r.DeleteTree("gold") }},
	}
	for _, step := range steps {
		var got [2]string
		for i, r := range repos {
			res, err := step.do(r)
			if err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			got[i] = fmt.Sprint(res) + "\n" + answers(r) // commits
			if err := r.dbs[0].Check(); err != nil {
				t.Fatalf("%s: Check: %v", step.name, err)
			}
		}
		if got[0] != got[1] {
			t.Fatalf("%s: old schema answers\n%s\nnew schema answers\n%s", step.name, got[0], got[1])
		}
	}
	for i, want := range []int{2, 0} {
		sn := repos[i].dbs[0].Snapshot()
		tab, err := sn.Table(tableName)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(tab.Schema().Indexes); n != want {
			t.Fatalf("repository %d: species_data has %d secondary indexes, want %d", i, n, want)
		}
		sn.Close()
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
