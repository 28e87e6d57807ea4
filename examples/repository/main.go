// Repository demonstrates the disk-backed lifecycle of §2.1 and the §3
// demo script: load a tree with species data into the relational
// repository, run structure queries against the store (not main memory),
// append more species data, recall the query history, and reopen the page
// file to show durability.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	crimson "repro"
	"repro/internal/queryrepo"
)

func main() {
	dir, err := os.MkdirTemp("", "crimson-repo-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "crimson.db")

	r := rand.New(rand.NewSource(99))
	gold, err := crimson.GenerateYule(5000, 1.0, r)
	if err != nil {
		log.Fatal(err)
	}
	aln, err := crimson.SimulateSequences(gold, crimson.SeqConfig{Length: 300, Model: crimson.K2P(2)}, r)
	if err != nil {
		log.Fatal(err)
	}

	repo, err := crimson.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== loading 5000-leaf gold tree into", path)
	loaded, err := repo.LoadTree("gold", gold, crimson.DefaultFanout, func(msg string) {
		fmt.Println("  ", msg)
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := repo.Species.PutAlignment("gold", "seq:sim", aln); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree info: %+v\n", loaded.Info())

	// A read sees committed state: commit what was put, then read it back
	// through a snapshot (the load committed itself).
	if err := repo.Commit(); err != nil {
		log.Fatal(err)
	}
	snap := repo.Snapshot()
	stored, err := snap.Tree("gold")
	if err != nil {
		log.Fatal(err)
	}

	// Structure queries against the store, under a cancellable context —
	// the same ctx-first forms crimsond runs per request.
	ctx := context.Background()
	// Each is a query value: run on the stored tree, recorded in the history
	// with its summary, and rerunnable from there.
	leaves := gold.LeafNames()
	lq := queryrepo.LCA{A: leaves[10], B: leaves[4000], Tree: "gold"}
	lrow, summary, err := lq.Run(ctx, stored)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LCA(%s, %s) = node %d at depth %d, time %.3f\n", lq.A, lq.B, lrow.ID, lrow.Depth, lrow.Dist)
	if _, err := repo.Record(lq, summary); err != nil {
		log.Fatal(err)
	}

	// Sample with respect to time and project — the §2.2 workload.
	picked, err := stored.SampleWithTimeCtx(ctx, lrow.Dist, 8, r)
	if err != nil {
		log.Fatal(err)
	}
	pq := queryrepo.Project{Tree: "gold"}
	for _, n := range picked {
		pq.Species = append(pq.Species, n.Name)
	}
	projected, summary, err := pq.Run(ctx, stored)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprojected %d sampled species:\n%s", len(picked), crimson.ASCII(projected))
	if _, err := repo.Record(pq, summary); err != nil {
		log.Fatal(err)
	}

	// Species data retrieval for the sample.
	seq, err := snap.SpeciesView.Get("gold", picked[0].Name, "seq:sim")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s sequence (first 60 of %d): %s...\n", picked[0].Name, len(seq), seq[:60])

	// Append more species data later — the demo's third loading option.
	if err := repo.Species.Put("gold", picked[0].Name, "trait:eyecolor", []byte("brown")); err != nil {
		log.Fatal(err)
	}
	snap.Close() // it predates the put: a new one, after the commit, sees it
	if err := repo.Commit(); err != nil {
		log.Fatal(err)
	}
	snap = repo.Snapshot()
	recs, _ := snap.SpeciesView.List("gold", picked[0].Name)
	fmt.Printf("%s now has %d data records\n", picked[0].Name, len(recs))
	snap.Close()

	if err := repo.Close(); err != nil {
		log.Fatal(err)
	}

	// Reopen: everything is durable.
	fmt.Println("\n== reopening repository")
	repo, err = crimson.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer repo.Close()
	snap = repo.Snapshot()
	defer snap.Close()
	infos, _ := snap.Trees()
	fmt.Printf("trees: %+v\n", infos)
	history, _ := snap.QueryView.History(ctx, 5)
	fmt.Println("query history (most recent first):")
	for _, e := range history {
		fmt.Printf("  #%d %-8s %s => %.60s\n", e.ID, e.Kind, e.Args, e.Summary)
	}
	st, _ := os.Stat(path)
	fmt.Printf("page file size: %d KiB\n", st.Size()/1024)
}
