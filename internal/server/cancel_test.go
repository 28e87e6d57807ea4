// Cancellation-hygiene and pagination tests for the context-first read
// API: a client that dies mid-query must not leak snapshot pins (the
// epoch gauges return to baseline and reclamation still drains), and
// cursor iteration must reproduce the exact full listing.
package server_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	crimson "repro"
	"repro/client"
)

// waitStats polls the server's stats until cond holds or the deadline
// passes, returning the last snapshot either way.
func waitStats(t *testing.T, cl *client.Client, what string, cond func(client.Stats) bool) client.Stats {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	var st client.Stats
	for {
		var err error
		st, err = cl.StatsCtx(context.Background())
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last stats: open_snapshots=%d pending_reclaim=%d in_flight=%d aborted=%d",
				what, st.OpenSnapshots, st.PendingReclaimPages, st.InFlightReads, st.AbortedReads)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCancelMidReadReleasesSnapshotPins kills clients mid-export and
// mid-project on a 10k-leaf tree and asserts the MVCC gauges return to
// baseline: no epoch pin outlives its dead request, and a subsequent
// delete reclaims every page (pending_reclaim_pages drains to zero, which
// it cannot do if an abandoned snapshot still pins an old epoch).
func TestCancelMidReadReleasesSnapshotPins(t *testing.T) {
	if replicaMode() {
		t.Skip("abort counters and snapshot pins live on the follower that served the reads")
	}
	repo, cl := startServer(t, crimson.ServerConfig{})
	gold := yule(t, 10000, 21)
	if _, err := repo.LoadTree("big", gold, crimson.DefaultFanout, nil); err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	leaves := gold.LeafNames()

	base := waitStats(t, cl, "idle baseline", func(st client.Stats) bool {
		return st.OpenSnapshots == 0 && st.InFlightReads == 0
	})
	if base.AbortedReads != 0 {
		t.Fatalf("baseline aborted_reads = %d, want 0", base.AbortedReads)
	}

	// Mid-export kills: start streaming, read a few bytes, hang up.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		rc, err := cl.ExportReader(ctx, "big")
		if err != nil {
			cancel()
			t.Fatalf("export %d: %v", i, err)
		}
		buf := make([]byte, 64)
		if _, err := io.ReadFull(rc, buf); err != nil {
			t.Fatalf("export %d first bytes: %v", i, err)
		}
		cancel()
		rc.Close()
	}

	// Mid-project kills: deadlines far shorter than the projection of a
	// 10k-leaf tree over all its leaves (some 35 ms of walk alone, before the
	// 400 KB answer is rendered), several in flight at once.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			_, err := cl.ProjectCtx(ctx, "big", leaves)
			if err == nil {
				t.Errorf("project %d completed inside 10ms; deadline too generous for this assertion", i)
			}
		}(i)
	}
	wg.Wait()

	st := waitStats(t, cl, "snapshot release after aborts", func(st client.Stats) bool {
		return st.OpenSnapshots == 0 && st.InFlightReads == 0
	})
	if st.AbortedReads == 0 {
		t.Fatal("no aborted reads counted; cancellation never reached the read path")
	}

	// The decisive leak check: delete the tree. Every page it occupied is
	// retired; they can only return to the free list if no snapshot from
	// the dead requests still pins an old epoch. The target is the idle
	// baseline, not zero: shards that have never committed keep a page or
	// two pending from their own catalog initialization.
	if err := cl.DeleteCtx(context.Background(), "big"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	waitStats(t, cl, "page reclamation after delete", func(st client.Stats) bool {
		return st.PendingReclaimPages <= base.PendingReclaimPages && st.OpenSnapshots == 0
	})
}

// TestBenchReleasesSnapshotBeforeRun: a Benchmark Manager run reads the
// store only to export its gold tree. While the in-memory run goes on, the
// request holds no read slot and no snapshot pin, so deleting and reloading
// the very tree it benchmarks reclaims every page of the old incarnation
// before the run ends.
func TestBenchReleasesSnapshotBeforeRun(t *testing.T) {
	if replicaMode() {
		t.Skip("snapshot pins and read slots live on the server that ran the bench")
	}
	repo, cl := startServer(t, crimson.ServerConfig{})
	ctx := context.Background()
	gold := yule(t, 2000, 31)
	if _, err := repo.LoadTree("gold", gold, crimson.DefaultFanout, nil); err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	base := waitStats(t, cl, "idle baseline", func(st client.Stats) bool {
		return st.OpenSnapshots == 0 && st.InFlightReads == 0
	})

	done := make(chan error, 1)
	go func() {
		_, err := cl.BenchCtx(ctx, "gold", client.BenchRequest{
			Sizes: []int{80}, Replicates: 3, Algorithms: []string{"MP"}, SeqLength: 200, Seed: 5, Parallel: 1,
		})
		done <- err
	}()
	running := func(what string) {
		t.Helper()
		select {
		case err := <-done:
			t.Fatalf("the bench ended (err %v) before %s; it is too short to observe", err, what)
		default:
		}
	}
	// The export scans every node row; once it has, only the run is left.
	scanned := base.Engine["rows_scanned"] + int64(gold.NumNodes())
	waitStats(t, cl, "the bench past its export, holding nothing", func(st client.Stats) bool {
		return st.PerOp["bench"] == 1 && st.Engine["rows_scanned"] >= scanned &&
			st.InFlightReads == 0 && st.OpenSnapshots == 0
	})
	running("its export was seen released")

	if err := cl.DeleteCtx(ctx, "gold"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := cl.LoadTreeCtx(ctx, "gold", crimson.DefaultFanout, yule(t, 300, 32)); err != nil {
		t.Fatalf("reload: %v", err)
	}
	waitStats(t, cl, "the old incarnation's pages reclaimed", func(st client.Stats) bool {
		return st.PendingReclaimPages <= base.PendingReclaimPages && st.OpenSnapshots == 0
	})
	running("the delete was reclaimed")
	if err := <-done; err != nil {
		t.Fatalf("bench: %v", err)
	}
}

// TestAbortedExportNeverSilentlyTruncates pins the failure mode of a cut
// stream: after cancelling mid-download, the client must see either an
// error or a complete well-formed Newick body — never a clean EOF on a
// truncated prefix, which would be indistinguishable from a full export.
// (Whether the cancel lands before the server finishes is a race; both
// outcomes are legal, silent truncation is not.)
func TestAbortedExportNeverSilentlyTruncates(t *testing.T) {
	repo, cl := startServer(t, crimson.ServerConfig{})
	gold := yule(t, 8000, 5)
	if _, err := repo.LoadTree("big", gold, crimson.DefaultFanout, nil); err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		rc, err := cl.ExportReader(ctx, "big")
		if err != nil {
			cancel()
			t.Fatalf("export %d: %v", i, err)
		}
		head := make([]byte, 16)
		if _, err := io.ReadFull(rc, head); err != nil {
			cancel()
			t.Fatalf("export %d first bytes: %v", i, err)
		}
		cancel()
		rest, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			continue // aborted mid-stream: the client saw the cut
		}
		body := string(head) + string(rest)
		if !strings.HasSuffix(body, ";\n") {
			t.Fatalf("export %d: clean EOF on a truncated body (%d bytes, no terminator)", i, len(body))
		}
	}
}

// TestTreesPaginationRoundTrip proves cursor iteration over /v1/trees at
// shards=4 yields exactly the name-sorted full listing: the cursor resumes
// the shard merge, pages never overlap, and nothing is skipped.
func TestTreesPaginationRoundTrip(t *testing.T) {
	repo, cl := startServerShards(t, crimson.ServerConfig{}, 4)
	const n = 11
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("tree-%02d", i)
		if _, err := repo.LoadTree(name, yule(t, 40, int64(i+1)), crimson.DefaultFanout, nil); err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
		names = append(names, name)
	}

	full, err := cl.TreesCtx(context.Background())
	if err != nil {
		t.Fatalf("full listing: %v", err)
	}
	if len(full) != n {
		t.Fatalf("full listing has %d trees, want %d", len(full), n)
	}
	for i, info := range full {
		if info.Name != names[i] {
			t.Fatalf("full listing out of order at %d: %q, want %q", i, info.Name, names[i])
		}
	}

	for _, pageSize := range []int{1, 2, 3, 5, n, n + 3} {
		var paged []client.TreeInfo
		cursor := ""
		pages := 0
		for {
			page, next, err := cl.TreesPage(context.Background(), cursor, pageSize)
			if err != nil {
				t.Fatalf("page size %d: %v", pageSize, err)
			}
			if len(page) > pageSize {
				t.Fatalf("page size %d: got %d trees in one page", pageSize, len(page))
			}
			paged = append(paged, page...)
			pages++
			if next == "" {
				break
			}
			cursor = next
		}
		if len(paged) != len(full) {
			t.Fatalf("page size %d: %d trees via cursor, want %d", pageSize, len(paged), len(full))
		}
		for i := range full {
			if paged[i] != full[i] {
				t.Fatalf("page size %d: entry %d = %+v, want %+v", pageSize, i, paged[i], full[i])
			}
		}
		if wantPages := (n + pageSize - 1) / pageSize; pages < wantPages {
			t.Fatalf("page size %d: took %d pages, expected at least %d", pageSize, pages, wantPages)
		}
	}

	// The auto-paginating iterator walks the same listing.
	var viaIter []string
	for info, err := range cl.TreesIter(context.Background(), 3) {
		if err != nil {
			t.Fatalf("iter: %v", err)
		}
		viaIter = append(viaIter, info.Name)
	}
	if len(viaIter) != n {
		t.Fatalf("iterator yielded %d trees, want %d", len(viaIter), n)
	}
	for i, name := range viaIter {
		if name != names[i] {
			t.Fatalf("iterator order at %d: %q, want %q", i, name, names[i])
		}
	}
}

// TestHistoryPaginationRoundTrip pages the query history (write-path load
// records, which commit synchronously) and checks the cursor walk matches
// the one-shot listing, newest first.
func TestHistoryPaginationRoundTrip(t *testing.T) {
	_, cl := startServer(t, crimson.ServerConfig{})
	const n = 7
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h-%d", i)
		if _, err := cl.LoadTreeCtx(context.Background(), name, 0, yule(t, 30, int64(i+40))); err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
	}
	full, err := cl.HistoryCtx(context.Background(), 0)
	if err != nil {
		t.Fatalf("history: %v", err)
	}
	if len(full) != n {
		t.Fatalf("history has %d entries, want %d", len(full), n)
	}
	for i := 1; i < len(full); i++ {
		if full[i].ID >= full[i-1].ID {
			t.Fatalf("history not newest-first at %d: id %d after %d", i, full[i].ID, full[i-1].ID)
		}
	}
	var paged []client.HistoryEntry
	for e, err := range cl.HistoryIter(context.Background(), 3) {
		if err != nil {
			t.Fatalf("history iter: %v", err)
		}
		paged = append(paged, e)
	}
	if len(paged) != len(full) {
		t.Fatalf("paged history has %d entries, want %d", len(paged), len(full))
	}
	for i := range full {
		if paged[i].ID != full[i].ID {
			t.Fatalf("paged history diverges at %d: id %d, want %d", i, paged[i].ID, full[i].ID)
		}
	}
}
