package crimson_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	crimson "repro"
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
