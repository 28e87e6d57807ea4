package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// TestWireRoundTrip pushes every frame kind through one stream and reads
// it back: headers, roots, and page payloads (ids and images) must
// survive byte-exactly.
func TestWireRoundTrip(t *testing.T) {
	var roots [storage.NumRoots]storage.PageID
	roots[0], roots[7] = 42, 99
	mkPage := func(id storage.PageID, fill byte) storage.DirtyPage {
		d := make([]byte, storage.PageSize)
		for i := range d {
			d[i] = fill
		}
		return storage.DirtyPage{ID: id, Data: d}
	}
	frames := []struct {
		f     frame
		pages []storage.DirtyPage
	}{
		{frame{Kind: kindHello, Epoch: 7, Snapshot: true, PageTotal: 123}, nil},
		{frame{Kind: kindPages}, []storage.DirtyPage{mkPage(1, 0xAA), mkPage(9, 0x55)}},
		{frame{Kind: kindSnapEnd, Epoch: 7, Roots: rootsToWire(roots)}, nil},
		{frame{Kind: kindBatch, Epoch: 8, Horizon: 3}, []storage.DirtyPage{mkPage(0, 0x01)}},
		{frame{Kind: kindPing, Epoch: 8}, nil},
	}

	var buf bytes.Buffer
	fw := newFrameWriter(&buf)
	for _, fr := range frames {
		if err := fw.writeFrame(fr.f, fr.pages); err != nil {
			t.Fatal(err)
		}
	}
	rd := newFrameReader(&buf)
	for i, want := range frames {
		got, pages, err := rd.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.f.Kind || got.Epoch != want.f.Epoch || got.Horizon != want.f.Horizon ||
			got.Snapshot != want.f.Snapshot || got.PageTotal != want.f.PageTotal {
			t.Fatalf("frame %d header = %+v, want %+v", i, got, want.f)
		}
		if want.f.Roots != nil && rootsFromWire(got.Roots) != roots {
			t.Fatalf("frame %d roots = %v, want %v", i, got.Roots, roots)
		}
		if len(pages) != len(want.pages) {
			t.Fatalf("frame %d carried %d pages, want %d", i, len(pages), len(want.pages))
		}
		for j, p := range pages {
			if p.ID != want.pages[j].ID || !bytes.Equal(p.Data, want.pages[j].Data) {
				t.Fatalf("frame %d page %d corrupted in transit", i, j)
			}
		}
	}
}

// primaryFixture is an in-package stand-in for the crimsond endpoints a
// follower speaks to: a file-backed store, its publisher, and an HTTP
// server exposing /v1/repl/status and /v1/repl/stream.
type primaryFixture struct {
	store *storage.Store
	pub   *Publisher
	srv   *httptest.Server
	tree  *storage.BTree
}

func newPrimaryFixture(t *testing.T) *primaryFixture {
	t.Helper()
	dir := t.TempDir()
	// The follower probes shard layout from the status response only; the
	// primary's own dir layout is irrelevant here, a flat store suffices.
	st, err := storage.Open(filepath.Join(dir, "primary.db"))
	if err != nil {
		t.Fatal(err)
	}
	st.SetCheckpointPolicy(1<<40, time.Hour) // tests control truncation explicitly
	pub := NewPublisher(st)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/repl/status", func(w http.ResponseWriter, r *http.Request) {
		resp := StatusResponse{Role: "primary", Shards: []ShardStatus{{Shard: 0, Epoch: st.PublishedEpoch()}}}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/v1/repl/stream", func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from_epoch"), 10, 64)
		pub.ServeStream(r.Context(), w, from)
	})
	srv := httptest.NewServer(mux)
	tree, err := storage.NewBTree(st)
	if err != nil {
		t.Fatal(err)
	}
	st.SetRoot(0, tree.Root())
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	f := &primaryFixture{store: st, pub: pub, srv: srv, tree: tree}
	t.Cleanup(func() {
		srv.Close()
		pub.Close()
		st.Close()
	})
	return f
}

// commit writes n keys with the given prefix, one commit per key, and
// returns the primary's resulting epoch.
func (f *primaryFixture) commit(t *testing.T, prefix string, n int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s-%03d", prefix, i)
		if err := f.tree.Put([]byte(k), []byte("v:"+k)); err != nil {
			t.Fatal(err)
		}
		f.store.SetRoot(0, f.tree.Root())
		if err := f.store.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return f.store.PublishedEpoch()
}

// horizon reports the reclaim horizon the publisher ships: the Horizon of
// the newest batch in its ring (zero while the ring is empty).
func (f *primaryFixture) horizon() uint64 {
	f.pub.mu.Lock()
	defer f.pub.mu.Unlock()
	if len(f.pub.ring) == 0 {
		return 0
	}
	return f.pub.ring[len(f.pub.ring)-1].Horizon
}

// waitEpoch blocks until the store's published epoch reaches want.
func waitEpoch(t *testing.T, st *storage.Store, want uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := st.AwaitEpoch(ctx, want); err != nil {
		t.Fatalf("store stuck at epoch %d, want %d: %v", st.PublishedEpoch(), want, err)
	}
}

// verifyKeys asserts every key the primary committed is readable on the
// replica store with the right value.
func verifyKeys(t *testing.T, st *storage.Store, prefix string, n int) {
	t.Helper()
	tree := storage.OpenBTree(st, st.Root(0))
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s-%03d", prefix, i)
		got, ok, err := tree.Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("replica missing key %s (ok=%v err=%v)", k, ok, err)
		}
		if want := "v:" + k; string(got) != want {
			t.Fatalf("replica key %s = %q, want %q", k, got, want)
		}
	}
	if err := tree.Check(); err != nil {
		t.Fatalf("replica tree integrity: %v", err)
	}
}

func startFollower(t *testing.T, ctx context.Context, dir, url string) *Follower {
	t.Helper()
	fl, err := OpenFollower(dir, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl.Start(ctx)
	if err := fl.WaitSynced(ctx); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	return fl
}

// TestFollowerSyncsUncheckpointedPrimaryAndTails covers a snapshot catch-up
// whose pages the primary has not yet written back (its log still holds
// every batch) and live streaming: a follower connecting from epoch zero
// must reach the primary's epoch with identical content, then track
// subsequent commits.
func TestFollowerSyncsUncheckpointedPrimaryAndTails(t *testing.T) {
	p := newPrimaryFixture(t)
	epoch := p.commit(t, "wal", 5)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fl := startFollower(t, ctx, t.TempDir(), p.srv.URL)
	defer fl.Stop()

	st := fl.Stores()[0]
	waitEpoch(t, st, epoch)
	verifyKeys(t, st, "wal", 5)

	// Live tail: new commits must stream through without reconnects.
	epoch = p.commit(t, "live", 5)
	waitEpoch(t, st, epoch)
	verifyKeys(t, st, "live", 5)

	sts := fl.Status()
	if sts.Role != "follower" || len(sts.Shards) != 1 {
		t.Fatalf("follower status = %+v", sts)
	}
	if sh := sts.Shards[0]; !sh.Connected || !sh.Synced || sh.Epoch != epoch {
		t.Fatalf("shard status = %+v, want connected+synced at epoch %d", sh, epoch)
	}
}

// TestFollowerSnapshotCatchUp checkpoints the primary before the follower
// ever connects, so the snapshot's pages come from the page file, and then
// checks the stream moves on to ordinary batch tailing.
func TestFollowerSnapshotCatchUp(t *testing.T) {
	p := newPrimaryFixture(t)
	epoch := p.commit(t, "snap", 8)
	if err := p.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if p.store.WALSize() != 0 {
		t.Fatal("setup: WAL not reset, the snapshot's pages would not all come from the page file")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fl := startFollower(t, ctx, t.TempDir(), p.srv.URL)
	defer fl.Stop()

	st := fl.Stores()[0]
	waitEpoch(t, st, epoch)
	verifyKeys(t, st, "snap", 8)

	epoch = p.commit(t, "after", 3)
	waitEpoch(t, st, epoch)
	verifyKeys(t, st, "after", 3)
}

// TestFollowerResumesFromLocalWAL stops a synced follower, lets the
// primary advance, and reopens the same directory: the follower must
// recover its applied epoch from its own WAL before it asks the primary
// for anything, and converge from there.
func TestFollowerResumesFromLocalWAL(t *testing.T) {
	p := newPrimaryFixture(t)
	epoch := p.commit(t, "one", 4)

	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fl := startFollower(t, ctx, dir, p.srv.URL)
	waitEpoch(t, fl.Stores()[0], epoch)
	resumeFrom := fl.Stores()[0].PublishedEpoch()
	fl.Stop()
	for _, st := range fl.Stores() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	epoch = p.commit(t, "two", 4)

	fl2 := startFollower(t, ctx, dir, p.srv.URL)
	defer fl2.Stop()
	st := fl2.Stores()[0]
	if got := st.PublishedEpoch(); got < resumeFrom {
		t.Fatalf("reopened follower recovered to epoch %d, want >= %d", got, resumeFrom)
	}
	waitEpoch(t, st, epoch)
	verifyKeys(t, st, "one", 4)
	verifyKeys(t, st, "two", 4)
}

// TestFollowerPromote syncs a follower, stops it, promotes it, and writes
// to it: the promoted store must accept local commits on top of the
// replicated history while keeping everything it applied.
func TestFollowerPromote(t *testing.T) {
	p := newPrimaryFixture(t)
	epoch := p.commit(t, "pre", 5)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fl := startFollower(t, ctx, t.TempDir(), p.srv.URL)
	st := fl.Stores()[0]
	waitEpoch(t, st, epoch)

	if err := fl.Promote(); err != nil {
		t.Fatal(err)
	}
	if !fl.isPromoted() {
		t.Fatal("Promoted() false after Promote")
	}
	if st.IsReplica() {
		t.Fatal("store still flags replica after promote")
	}

	tree := storage.OpenBTree(st, st.Root(0))
	if err := tree.Put([]byte("post-promote"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	st.SetRoot(0, tree.Root())
	if err := st.Commit(); err != nil {
		t.Fatalf("commit on promoted store: %v", err)
	}
	verifyKeys(t, st, "pre", 5)
	got, ok, err := storage.OpenBTree(st, st.Root(0)).Get([]byte("post-promote"))
	if err != nil || !ok || string(got) != "ok" {
		t.Fatalf("post-promote key: %q ok=%v err=%v", got, ok, err)
	}
	if st.PublishedEpoch() <= epoch {
		t.Fatalf("promoted commit did not advance the epoch past %d", epoch)
	}
}

// TestFollowerInvalidatesPinnedSnapshots pins the torn-read guard: when a
// batch whose reclaim horizon covers an open local snapshot must be
// applied (the grace period expired), the snapshot is invalidated — its
// reads fail with storage.ErrSnapshotInvalidated — and the apply loop
// still makes progress, rather than silently rewriting pages under the
// pinned reader.
func TestFollowerInvalidatesPinnedSnapshots(t *testing.T) {
	p := newPrimaryFixture(t)
	epoch := p.commit(t, "inv", 4)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fl := startFollower(t, ctx, t.TempDir(), p.srv.URL)
	defer fl.Stop()
	st := fl.Stores()[0]
	waitEpoch(t, st, epoch)

	// A long-running read on the replica: pin a snapshot and keep it open.
	sn := st.Snapshot()
	defer sn.Close()
	pinned := storage.OpenBTreeAt(st, sn.Root(0), sn.Epoch())
	if _, ok, err := pinned.Get([]byte("inv-000")); err != nil || !ok {
		t.Fatalf("pinned read before conflict: ok=%v err=%v", ok, err)
	}

	// Churn the primary until its reclaim horizon covers the snapshot's
	// epoch: pages the snapshot may still reference have been reused, so
	// the shipped batches now conflict with the open pin.
	deadline := time.Now().Add(10 * time.Second)
	round := 0
	for p.horizon() < sn.Epoch() {
		if time.Now().After(deadline) {
			t.Fatalf("shipped reclaim horizon stuck at %d, want >= %d", p.horizon(), sn.Epoch())
		}
		p.commit(t, fmt.Sprintf("churn%d", round), 2)
		round++
	}
	target := p.commit(t, "final", 1)

	// The apply loop must get past the conflict (after the grace period)
	// instead of stalling behind the open snapshot...
	waitEpoch(t, st, target)
	verifyKeys(t, st, "final", 1)

	// ...and the pinned reader must now fail with the retryable error, not
	// observe rewritten pages.
	if _, _, err := pinned.Get([]byte("inv-001")); !errors.Is(err, storage.ErrSnapshotInvalidated) {
		t.Fatalf("pinned read after conflicting apply: err=%v, want ErrSnapshotInvalidated", err)
	}

	// A fresh snapshot at the applied epoch reads normally.
	sn2 := st.Snapshot()
	defer sn2.Close()
	fresh := storage.OpenBTreeAt(st, sn2.Root(0), sn2.Epoch())
	if _, ok, err := fresh.Get([]byte("inv-000")); err != nil || !ok {
		t.Fatalf("fresh snapshot read after conflict: ok=%v err=%v", ok, err)
	}
}

// TestFollowerApplyLeavesHeldImagesIntact is the aliasing half of the
// torn-read guard. Reads return sub-slices of immutable page images, so a
// replicated apply that installs new images for pages a pinned reader has
// read must leave the bytes that reader holds exactly as they were — and the
// reader's next page read must still end in ErrSnapshotInvalidated, because
// the page ids it would follow now belong to another epoch.
func TestFollowerApplyLeavesHeldImagesIntact(t *testing.T) {
	p := newPrimaryFixture(t)
	epoch := p.commit(t, "held", 40)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fl := startFollower(t, ctx, t.TempDir(), p.srv.URL)
	defer fl.Stop()
	st := fl.Stores()[0]
	waitEpoch(t, st, epoch)

	sn := st.Snapshot()
	defer sn.Close()
	pinned := storage.OpenBTreeAt(st, sn.Root(0), sn.Epoch())
	type held struct{ got, want []byte }
	var hs []held
	leaf, err := pinned.LeafC([]byte("held-000"), nil)
	if err != nil || leaf.Len() == 0 {
		t.Fatalf("pinned leaf before conflict: %d entries, err=%v", leaf.Len(), err)
	}
	for i := 0; i < leaf.Len(); i++ {
		k := leaf.Key(i)
		v, err := leaf.Val(i)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, held{k, bytes.Clone(k)}, held{v, bytes.Clone(v)})
	}
	pages := map[storage.PageID][]byte{}
	if err := pinned.Pages(func(id storage.PageID) {
		img, err := st.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		pages[id] = img
		hs = append(hs, held{img, bytes.Clone(img)})
	}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // the reader keeps looking at what it holds while batches apply
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, h := range hs {
				if !bytes.Equal(h.got, h.want) {
					t.Error("held bytes changed during replicated apply")
					return
				}
			}
		}
	}()

	// Churn the primary until it has freed and reused pages retired after
	// the snapshot's epoch — the snapshot's own — then let the follower
	// apply past it. (Few commits: each conflicting batch
	// waits out the follower's grace period for the open snapshot.)
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; p.horizon() < sn.Epoch()+2; round++ {
		if time.Now().After(deadline) {
			t.Fatalf("shipped reclaim horizon stuck at %d, want >= %d", p.horizon(), sn.Epoch()+2)
		}
		p.commit(t, fmt.Sprintf("churn%d", round), 2)
	}
	waitEpoch(t, st, p.commit(t, "final", 1))
	close(stop)
	<-done

	for _, h := range hs {
		if !bytes.Equal(h.got, h.want) {
			t.Fatal("held bytes differ after the conflicting apply")
		}
	}
	replaced := 0
	for id, old := range pages {
		if now, err := st.ReadPage(id); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(now, old) {
			replaced++
		}
	}
	if replaced == 0 {
		t.Fatal("the apply replaced none of the pages the reader held: the test exercised nothing")
	}
	// What the reader holds still answers; its next page read does not.
	pos := 0
	for pos < leaf.Len() && !bytes.Equal(leaf.Key(pos), []byte("held-000")) {
		pos++
	}
	if pos == leaf.Len() {
		t.Fatal("the held leaf lost its key after the conflicting apply")
	} else if _, err := leaf.Val(pos); err != nil {
		t.Fatalf("the held leaf's value after the conflicting apply: %v", err)
	}
	if _, err := pinned.LeafC([]byte("held-001"), nil); !errors.Is(err, storage.ErrSnapshotInvalidated) {
		t.Fatalf("pinned descent after conflicting apply: err=%v, want ErrSnapshotInvalidated", err)
	}
	if _, _, err := pinned.Get([]byte("held-001")); !errors.Is(err, storage.ErrSnapshotInvalidated) {
		t.Fatalf("pinned read after conflicting apply: err=%v, want ErrSnapshotInvalidated", err)
	}
}

// TestReplicaRejectsLocalCommit pins the fork-prevention rule: a replica
// store must refuse local commits until promoted.
func TestReplicaRejectsLocalCommit(t *testing.T) {
	p := newPrimaryFixture(t)
	epoch := p.commit(t, "guard", 2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fl := startFollower(t, ctx, t.TempDir(), p.srv.URL)
	defer fl.Stop()
	st := fl.Stores()[0]
	waitEpoch(t, st, epoch)

	tree := storage.OpenBTree(st, st.Root(0))
	if err := tree.Put([]byte("illegal"), []byte("write")); err != nil {
		t.Fatal(err)
	}
	st.SetRoot(0, tree.Root())
	if err := st.Commit(); err == nil {
		t.Fatal("local commit on a replica store succeeded, want ErrReplica")
	}
}

// TestHorizonWaitEndsWhenTheReaderCloses is the other half of the horizon
// guard: an apply blocked behind a pinned snapshot resumes when that
// snapshot closes — woken by the close, well inside the grace period — and
// nothing is invalidated, because nothing had to be.
func TestHorizonWaitEndsWhenTheReaderCloses(t *testing.T) {
	p := newPrimaryFixture(t)
	epoch := p.commit(t, "hz", 4)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fl := startFollower(t, ctx, t.TempDir(), p.srv.URL)
	defer fl.Stop()
	st := fl.Stores()[0]
	waitEpoch(t, st, epoch)

	sn := st.Snapshot()
	defer sn.Close()
	pinned := storage.OpenBTreeAt(st, sn.Root(0), sn.Epoch())
	conflicts := obs.Engine.Get(obs.CtrReplApplyConflicts)
	waits := obs.ReplHorizonWait.Snapshot()

	deadline := time.Now().Add(10 * time.Second)
	for round := 0; p.horizon() < sn.Epoch(); round++ {
		if time.Now().After(deadline) {
			t.Fatalf("shipped reclaim horizon stuck at %d, want >= %d", p.horizon(), sn.Epoch())
		}
		p.commit(t, fmt.Sprintf("churn%d", round), 2)
	}
	blocked := time.Now()
	target := p.commit(t, "final", 1)

	// The conflicting batch is held back while the reader is open...
	time.Sleep(40 * time.Millisecond)
	if got := st.PublishedEpoch(); got >= target {
		t.Fatalf("apply reached epoch %d over an open snapshot at %d", got, sn.Epoch())
	}
	if _, ok, err := pinned.Get([]byte("hz-001")); err != nil || !ok {
		t.Fatalf("pinned read while the apply waits: ok=%v err=%v", ok, err)
	}
	// ...and goes ahead the moment it closes.
	sn.Close()
	waitEpoch(t, st, target)
	if d := time.Since(blocked); d >= horizonGrace {
		t.Fatalf("apply resumed %v after the conflict began: the grace period ran out instead of the close waking it", d)
	}
	verifyKeys(t, st, "final", 1)
	if got := obs.Engine.Get(obs.CtrReplApplyConflicts); got != conflicts {
		t.Fatalf("repl_apply_conflicts moved by %d with the reader closed in time", got-conflicts)
	}
	after := obs.ReplHorizonWait.Snapshot()
	if after.Count == waits.Count || time.Duration(after.SumNS-waits.SumNS) < 30*time.Millisecond {
		t.Fatalf("horizon wait histogram: %d observations / %v recorded for a wait of at least 40ms",
			after.Count-waits.Count, time.Duration(after.SumNS-waits.SumNS))
	}
}

// TestFollowerKeepsLastStreamError: a follower whose streams are refused
// says why in its status (not just connected=false), WaitSynced gives up
// with the context, and both the error and its age clear once a later
// stream proves healthy.
func TestFollowerKeepsLastStreamError(t *testing.T) {
	p := newPrimaryFixture(t)
	p.commit(t, "err", 2)
	var demoted atomic.Bool
	demoted.Store(true)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if demoted.Load() && r.URL.Path == "/v1/repl/stream" {
			http.Error(w, "follower cannot serve the replication stream", http.StatusConflict)
			return
		}
		p.srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer front.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fl, err := OpenFollower(t.TempDir(), front.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl.Start(ctx)
	defer fl.Stop()

	short, cancelShort := context.WithTimeout(ctx, 150*time.Millisecond)
	defer cancelShort()
	if err := fl.WaitSynced(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitSynced against a refusing primary: %v", err)
	}
	sh := fl.Status().Shards[0]
	if sh.Connected || !strings.Contains(sh.LastError, "409") || !strings.Contains(sh.LastError, "cannot serve") {
		t.Fatalf("status while refused: %+v", sh)
	}

	demoted.Store(false)
	if err := fl.WaitSynced(ctx); err != nil {
		t.Fatalf("WaitSynced once the primary serves: %v", err)
	}
	waitEpoch(t, fl.Stores()[0], p.commit(t, "ok", 1))
	if sh := fl.Status().Shards[0]; sh.LastError != "" || sh.LastErrorMS != 0 || !sh.Connected {
		t.Fatalf("status after a healthy stream applied a batch: %+v", sh)
	}
}
