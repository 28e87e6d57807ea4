package crimson_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	crimson "repro"
	"repro/internal/nexus"
	"repro/internal/species"
	"repro/internal/treestore"
)

// TestLoadPreparesOutsideTheWriterMutex: a facade load validates, indexes
// and stages before it takes its shard's writer mutex, so a load stuck in
// prepare — here on its own progress callback — delays no other writer on
// the shard.
func TestLoadPreparesOutsideTheWriterMutex(t *testing.T) {
	repo := crimson.OpenMem() // one shard: both loads share its mutex
	defer repo.Close()
	slow, err := crimson.GenerateYule(300, 1.0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	quick, err := crimson.GenerateYule(50, 1.0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}

	preparing, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	slowDone := make(chan error, 1)
	go func() {
		_, err := repo.LoadTree("slow", slow, crimson.DefaultFanout, func(string) {
			once.Do(func() {
				close(preparing)
				<-release
			})
		})
		slowDone <- err
	}()
	<-preparing

	quickDone := make(chan error, 1)
	go func() {
		_, err := repo.LoadTree("quick", quick, crimson.DefaultFanout, nil)
		quickDone <- err
	}()
	select {
	case err := <-quickDone:
		if err != nil {
			t.Fatalf("load beside a preparing load: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a load waited for another load's prepare")
	}
	select {
	case err := <-slowDone:
		t.Fatalf("the held load returned early: %v", err)
	default:
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	if err := repo.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLoadTreeOfOneName: the name is checked under the writer
// mutex, after the lock-free prepare — of several concurrent loads of one
// name exactly one succeeds, the rest get ErrTreeExists having written
// nothing.
func TestConcurrentLoadTreeOfOneName(t *testing.T) {
	repo := crimson.OpenMemSharded(matrixShards(t))
	defer repo.Close()
	const n = 6
	trees := make([]*crimson.Tree, n)
	for i := range trees {
		var err error
		if trees[i], err = crimson.GenerateYule(40+7*i, 1.0, rand.New(rand.NewSource(int64(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range trees {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = repo.LoadTree("same", trees[i], crimson.DefaultFanout, nil)
		}()
	}
	wg.Wait()
	winner := -1
	for i, err := range errs {
		switch {
		case err == nil && winner < 0:
			winner = i
		case err == nil:
			t.Fatalf("loads %d and %d of one name both succeeded", winner, i)
		case !errors.Is(err, treestore.ErrTreeExists):
			t.Fatalf("losing load %d: %v, want ErrTreeExists", i, err)
		}
	}
	if winner < 0 {
		t.Fatal("no load of the name succeeded")
	}
	if st := openTree(t, repo, "same"); st.Info().Leaves != trees[winner].NumLeaves() {
		t.Fatalf("stored tree %+v; the winner has %d leaves", st.Info(), trees[winner].NumLeaves())
	}
	if err := repo.Check(); err != nil {
		t.Fatal(err)
	}
	// A table a loser had left behind would make this reload fail.
	if err := repo.Trees.Delete("same"); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("same", trees[0], crimson.DefaultFanout, nil); err != nil {
		t.Fatalf("reloading the name after the race: %v", err)
	}
}

// TestCommitDuringRejectedNexusLoad: Commit takes each shard's writer
// mutex, so it cannot capture a NEXUS load between the apply of its tree
// and the rollback a sequence that fails to store sets off. A 3 000-taxon
// caterpillar whose last CHARACTERS taxon is 'x/y' loads while another
// goroutine commits and looks for the tree in a fresh snapshot, again and
// again: no snapshot may see it.
func TestCommitDuringRejectedNexusLoad(t *testing.T) {
	repo := crimson.OpenMemSharded(matrixShards(t))
	defer repo.Close()
	tree, err := crimson.GenerateCaterpillar(3000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	chars := &nexus.Characters{Datatype: "DNA", Order: tree.LeafNames(), Seqs: map[string]string{}}
	chars.Order[len(chars.Order)-1] = "x/y"
	for _, taxon := range chars.Order {
		chars.Seqs[taxon] = "ACGT"
	}
	doc := &crimson.NexusDocument{Trees: []crimson.NamedTree{{Name: "t", Tree: tree}}, Characters: chars}

	var stop atomic.Bool
	snapshots, seen := 0, 0
	committed := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if err := repo.Commit(); err != nil {
				committed <- err
				return
			}
			snap := repo.Snapshot()
			if _, err := snap.Tree("t"); err == nil {
				seen++
			}
			snap.Close()
			snapshots++
		}
		committed <- nil
	}()
	_, loadErr := repo.LoadNexus(doc, "", crimson.DefaultFanout, nil)
	stop.Store(true)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if !errors.Is(loadErr, species.ErrBadKey) {
		t.Fatalf("load with taxon 'x/y': %v, want species.ErrBadKey", loadErr)
	}
	if seen > 0 {
		t.Fatalf("%d of %d snapshots saw the tree of a load that was rolled back", seen, snapshots)
	}
	snap := snapshotOf(t, repo)
	if _, err := snap.Tree("t"); !errors.Is(err, treestore.ErrNoTree) {
		t.Fatalf("tree after the rejected load: %v, want ErrNoTree", err)
	}
	if err := repo.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedNexusLoadLeavesNothing: a NEXUS load whose second taxon, 'b/c',
// is no species key fails with species.ErrBadKey through the facade and 400
// over HTTP, and the rollback takes back everything it applied: after a
// commit there is no tree, no sequence of the document and no load entry in
// the history, and the repository checks clean. A clean document then loads
// under the same name.
func TestRejectedNexusLoadLeavesNothing(t *testing.T) {
	const bad = `#NEXUS
BEGIN CHARACTERS;
	DIMENSIONS NCHAR=4;
	FORMAT DATATYPE=DNA;
	MATRIX
		a ACGT
		'b/c' AGGT
		d ACGA
	;
END;
BEGIN TREES;
	TREE t = ((a:1,'b/c':1):1,d:2);
END;
`
	clean := strings.ReplaceAll(bad, "'b/c'", "bc")
	for _, shards := range []int{1, 4} {
		for _, via := range []string{"LoadNexus", "POST"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, via), func(t *testing.T) {
				repo := crimson.OpenMemSharded(shards)
				defer repo.Close()
				srv := repo.NewServer(crimson.ServerConfig{})
				defer srv.Shutdown(context.Background())
				load := func(text string) error {
					if via == "POST" {
						rec := httptest.NewRecorder()
						srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/trees/t?format=nexus", strings.NewReader(text)))
						if rec.Code != http.StatusOK {
							return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
						}
						return nil
					}
					doc, err := crimson.ParseNexus(strings.NewReader(text))
					if err != nil {
						t.Fatal(err)
					}
					_, err = repo.LoadNexus(doc, "", crimson.DefaultFanout, nil)
					return err
				}

				err := load(bad)
				switch {
				case via == "POST" && (err == nil || !strings.HasPrefix(err.Error(), "status 400:")):
					t.Fatalf("POST of a document with taxon 'b/c': %v, want status 400", err)
				case via == "LoadNexus" && !errors.Is(err, species.ErrBadKey):
					t.Fatalf("LoadNexus of a document with taxon 'b/c': %v, want species.ErrBadKey", err)
				}
				// A rollback that missed anything would show in this commit.
				if err := repo.Commit(); err != nil {
					t.Fatal(err)
				}
				snap := snapshotOf(t, repo)
				if _, err := snap.Tree("t"); !errors.Is(err, treestore.ErrNoTree) {
					t.Fatalf("tree after the rejected load: %v, want ErrNoTree", err)
				}
				for _, taxon := range []string{"a", "d"} {
					if seq, err := snap.SpeciesView.Get("t", taxon, "seq:nexus"); !errors.Is(err, species.ErrNoData) {
						t.Fatalf("sequence of %s after the rejected load: %q, %v", taxon, seq, err)
					}
				}
				if loads, err := snap.QueryView.ByKind(context.Background(), "load"); err != nil || len(loads) != 0 {
					t.Fatalf("load history after the rejected load: %v, %v", loads, err)
				}
				if err := repo.Check(); err != nil {
					t.Fatal(err)
				}

				if err := load(clean); err != nil {
					t.Fatalf("clean reload of the name: %v", err)
				}
				snap = snapshotOf(t, repo)
				if _, err := snap.Tree("t"); err != nil {
					t.Fatalf("tree after the clean reload: %v", err)
				}
				if seq, err := snap.SpeciesView.Get("t", "bc", "seq:nexus"); err != nil || string(seq) != "AGGT" {
					t.Fatalf("sequence of bc after the clean reload: %q, %v", seq, err)
				}
				if loads, err := snap.QueryView.ByKind(context.Background(), "load"); err != nil || len(loads) != 1 {
					t.Fatalf("load history after the clean reload: %v, %v", loads, err)
				}
			})
		}
	}
}

// TestProgressMayCallCommit: a load says its progress with no writer mutex
// held, so a progress sink may call back into the repository. A LoadTree and
// a LoadNexus on a 4-shard repository whose sink commits on every line — a
// Commit takes each shard's writer mutex in turn — return, and say what a
// load always said, in the order it always said it.
func TestProgressMayCallCommit(t *testing.T) {
	repo := crimson.OpenMemSharded(4)
	defer repo.Close()
	tree, err := crimson.GenerateYule(200, 1.0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	chars := &nexus.Characters{Datatype: "DNA", Order: tree.LeafNames(), Seqs: map[string]string{}}
	for _, taxon := range chars.Order {
		chars.Seqs[taxon] = "ACGT"
	}
	opts := crimson.LoadOptions{Workers: 2}
	loads := []struct {
		name string
		load func(progress func(string)) (*crimson.LoadedTree, error)
		seqs bool
	}{
		{"tree", func(progress func(string)) (*crimson.LoadedTree, error) {
			return repo.LoadTreeOpts("tree", tree, crimson.DefaultFanout, opts, progress)
		}, false},
		{"nexus", func(progress func(string)) (*crimson.LoadedTree, error) {
			doc := &crimson.NexusDocument{Trees: []crimson.NamedTree{{Name: "nexus", Tree: tree}}, Characters: chars}
			return repo.LoadNexusOpts(doc, "", crimson.DefaultFanout, opts, progress)
		}, true},
	}
	for _, l := range loads {
		var said []string
		done := make(chan error, 1)
		var info treestore.TreeInfo
		go func() {
			st, err := l.load(func(msg string) {
				said = append(said, msg)
				if err := repo.Commit(); err != nil {
					t.Errorf("a commit from the progress sink: %v", err)
				}
			})
			if err == nil {
				info = st.Info()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("load %s: %v", l.name, err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("load %s, its progress sink committing, did not return in 3 s: it says a line under a writer mutex", l.name)
		}
		want := []string{
			fmt.Sprintf("building hierarchical index (f=%d) over %d nodes", crimson.DefaultFanout, tree.NumNodes()),
			fmt.Sprintf("staged %d node rows for bulk load (%d workers)", tree.NumNodes(), opts.Workers),
			fmt.Sprintf("creating relations for tree %q", l.name),
			fmt.Sprintf("loaded %d/%d nodes", tree.NumNodes(), tree.NumNodes()),
		}
		if l.seqs {
			want = append(want, fmt.Sprintf("stored %d sequences in the species repository", len(chars.Order)))
		}
		want = append(want, fmt.Sprintf("tree %q committed (%d layers, depth %d)", l.name, info.Layers, info.Depth))
		if strings.Join(said, "\n") != strings.Join(want, "\n") {
			t.Fatalf("load %s said\n%s\nwant\n%s", l.name, strings.Join(said, "\n"), strings.Join(want, "\n"))
		}
	}
	if err := repo.Check(); err != nil {
		t.Fatal(err)
	}
}
