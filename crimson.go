// Package crimson is a data management system for phylogenetic trees,
// reproducing "Crimson: A Data Management System to Support Evaluating
// Phylogenetic Tree Reconstruction Algorithms" (Zheng et al., VLDB 2006).
//
// Crimson stores huge simulation trees in relational form with a
// hierarchical Dewey labeling scheme whose label sizes are bounded by a
// constant f regardless of tree depth, supports the structure-based
// queries phylogenetics needs (least common ancestor, minimal spanning
// clade, tree projection, tree pattern match), samples species uniformly
// or with respect to evolutionary time, and benchmarks tree
// reconstruction algorithms against gold-standard simulation trees.
//
// The package is a facade over the internal subsystems:
//
//   - storage/relstore — embedded relational engine (pager, B+tree, WAL)
//   - core             — hierarchical bounded-depth Dewey labels
//   - treestore/species/queryrepo — the three repositories of §2.1
//   - sample/project/treecmp — the §2.2 queries
//   - treegen/seqsim   — gold-standard simulation
//   - distance/recon/benchmark — the Benchmark Manager
//   - newick/nexus/viz — formats and viewers
//   - server (+ repro/client) — crimsond, the HTTP/JSON network face
//
// # Quick start
//
//	repo := crimson.OpenMem()
//	defer repo.Close()
//	tree, _ := crimson.ParseNewick("(Syn:2.5,((Lla:1,Spy:1):1.5,Bha:0.75):0.5,Bsu:1.25);")
//	repo.LoadTree("gold", tree, crimson.DefaultFanout, nil) // commits
//	snap := repo.Snapshot()
//	defer snap.Close()
//	stored, _ := snap.Tree("gold")
//	projected, _ := stored.ProjectNamesCtx(ctx, []string{"Bha", "Lla", "Syn"})
//	fmt.Print(crimson.ASCII(projected))
//
// # Concurrency
//
// A read sees committed state, whole or not at all. A Repository is
// multi-version and sharded: trees are partitioned across N independent
// storage engines (OpenSharded; N=1 by default) by a hash of the tree name,
// and each engine copy-on-writes every page it mutates and publishes a new
// epoch at each commit.
//
// Every read goes through a Snapshot (Repository.Snapshot): it pins a
// per-shard epoch vector — each shard's last committed epoch — and reads
// lock-free. A projection, LCA, sample or export never waits on a concurrent
// bulk load or delete and sees every tree, species record and history entry
// exactly as committed on its shard: a tree mid-load or a record not yet
// committed is invisible, a tree mid-delete is still whole. Opening one costs
// tens of microseconds; superseded pages are reclaimed by epoch once the last
// snapshot that could read them closes.
//
// LoadTree, LoadNexus, Record and Commit take the per-shard writer mutexes,
// the same ones a server over the repository (NewServer) writes under, so
// loads of different trees that hash apart proceed in parallel — each one
// commit on its own shard, its history entry included — and no commit
// captures a load half applied. Trees.Delete and Species.Put take no
// mutex: their callers must not run them beside another writer of the same
// shard. Loads use
// a sorted bulk-load fast path that builds the node relation and its indexes
// bottom-up rather than one B+tree descent per row. In-memory helpers
// (Index, Planner, pattern match, RunBenchmark) are read-only after
// construction and freely shareable across goroutines.
//
// # Cancellation and streaming
//
// The read API is context-first: every stored-tree query has a ctx form
// (ProjectCtx, LCACtx, SampleUniformCtx, ExportCtx, ...) that threads the
// context down to the storage engine's scan loops, so cancelling it
// aborts the work within a few row reads and releases whatever snapshot
// pins the query held. SnapshotCtx ties a snapshot's lifetime to a
// context — an abandoned snapshot closes itself on cancellation instead
// of stalling page reclamation. StoredTree.ExportNewickTo streams a
// tree's Newick serialization in bounded memory, and Snapshot.TreesPage
// paginates the catalog with a resumable shard-merge cursor.
package crimson

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/benchmark"
	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/newick"
	"repro/internal/nexus"
	"repro/internal/obs"
	"repro/internal/phylo"
	"repro/internal/project"
	"repro/internal/queryrepo"
	"repro/internal/recon"
	"repro/internal/relstore"
	"repro/internal/repl"
	"repro/internal/sample"
	"repro/internal/seqsim"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/species"
	"repro/internal/storage"
	"repro/internal/treecmp"
	"repro/internal/treegen"
	"repro/internal/treestore"
	"repro/internal/viz"
)

// Core type aliases, so downstream code needs only this package.
type (
	// Tree is an in-memory rooted, edge-weighted phylogenetic tree.
	Tree = phylo.Tree
	// Node is one vertex of a Tree.
	Node = phylo.Node
	// Index is the hierarchical bounded-depth label index (the paper's
	// primary contribution).
	Index = core.Index
	// Label is a Dewey label ("2.1.1").
	Label = dewey.Label
	// StoredTree is a handle on a tree in the relational repository as of
	// a Snapshot; all its queries execute against the store row by row.
	StoredTree = treestore.Tree
	// LoadedTree is what a load returns: Info describes the tree as stored.
	// Query it through a Snapshot.
	LoadedTree = treestore.PreparedLoad
	// StoredNode is one stored tree node row.
	StoredNode = treestore.Node
	// TreeInfo summarizes a stored tree.
	TreeInfo = treestore.TreeInfo
	// Alignment is a set of aligned sequences keyed by species.
	Alignment = seqsim.Alignment
	// SeqConfig parameterizes sequence simulation.
	SeqConfig = seqsim.Config
	// Model is a nucleotide substitution model.
	Model = seqsim.Model
	// BenchConfig parameterizes a Benchmark Manager run.
	BenchConfig = benchmark.Config
	// BenchReport is a completed benchmark run.
	BenchReport = benchmark.Report
	// MatchResult reports a tree pattern match.
	MatchResult = treecmp.MatchResult
	// LoadOptions tunes the ingest pipeline (staging fan-out, per-stage
	// timings); the zero value behaves like plain LoadTree.
	LoadOptions = treestore.LoadOptions
	// LoadMetrics receives per-stage wall times of one load.
	LoadMetrics = treestore.LoadMetrics
	// NexusDocument is a parsed NEXUS file.
	NexusDocument = nexus.Document
	// NamedTree is one TREE statement of a NEXUS TREES block.
	NamedTree = nexus.NamedTree
	// Planner performs repeated projections over one in-memory tree.
	Planner = project.Planner
	// Server is crimsond, the HTTP/JSON server over a Repository; build
	// one with NewServer and drive it with package repro/client.
	Server = server.Server
	// ServerConfig tunes crimsond (listen address, in-flight read bound,
	// result-cache size, body limit).
	ServerConfig = server.Config
	// ServerStats is the /v1/stats counter snapshot.
	ServerStats = server.StatsSnapshot
	// OpLatency is one operation's latency summary within
	// ServerStats.OpLatencies (count plus p50/p95/p99).
	OpLatency = server.OpLatency
	// Span is one node of a request trace: a named stage with its wall
	// time and the engine counters attributed to it.
	Span = obs.Span
	// SpanSummary is the JSON form of a finished Span tree (what
	// ?debug=trace echoes and the slow-query log records).
	SpanSummary = obs.SpanSummary
	// ShardServerStats is one shard's MVCC state within ServerStats.Shards.
	ShardServerStats = server.ShardMVCC
	// MVCCStats reports a storage engine's epoch, open snapshots and
	// pages awaiting reclamation (aggregated across shards by
	// Repository.MVCC, per shard by Repository.MVCCShards).
	MVCCStats = storage.MVCCStats
	// Follower is a WAL-shipping replication follower: it streams durable
	// commit batches from a primary crimsond and applies them locally (see
	// OpenFollower).
	Follower = repl.Follower
	// ReplStatus is the /v1/repl/status body: per-shard replication state
	// of a primary or follower.
	ReplStatus = repl.StatusResponse
	// CommitWaiter tracks the durability of one commit per shard (see
	// Repository.CommitAsync).
	CommitWaiter = server.CommitWaiter
)

// DefaultFanout is the default depth bound f for hierarchical labels.
const DefaultFanout = core.DefaultFanout

// Reconstruction algorithms (re-exported constructors).
var (
	// NeighborJoining returns the NJ distance algorithm.
	NeighborJoining = func() recon.Algorithm { return recon.NeighborJoining{} }
	// UPGMA returns the UPGMA distance algorithm.
	UPGMA = func() recon.Algorithm { return recon.UPGMA{} }
	// Parsimony returns the greedy maximum-parsimony algorithm with the
	// given addition-order seed.
	Parsimony = func(seed int64) recon.SeqAlgorithm { return recon.Parsimony{Seed: seed} }
)

// Substitution models (re-exported constructors).
var (
	// JC69 is the Jukes–Cantor model.
	JC69 = func() Model { return seqsim.JC69{} }
	// K2P returns a Kimura two-parameter model.
	K2P = func(kappa float64) Model { return seqsim.K2P{Kappa: kappa} }
	// HKY85 returns an HKY85 model.
	HKY85 = func(kappa float64, freqs [4]float64) Model {
		return seqsim.HKY85{Kappa: kappa, BaseFreqs: freqs}
	}
)

// Repository bundles the three §2.1 repositories: the Tree Repository,
// the Species Repository and the Query Repository.
//
// A repository spans one or more shards. Each shard is an independent
// relational database — its own page file, WAL and epoch machinery — and
// trees (with their species data) are placed on shards by a deterministic
// hash of the tree name, so the API below is identical at every shard
// count. A load's history entry lives on its tree's shard and a read
// query's on shard 0; snapshots merge the history by id. With N shards
// there are N independent writer locks: loads of trees on different
// shards proceed genuinely in parallel, and the single-writer contract
// holds per shard.
//
// A Repository is safe for any number of snapshot readers plus one writer
// per shard (see the package comment's Concurrency section).
type Repository struct {
	// be is the shards, the repositories and their one writer, shared with
	// every server built over the repository (NewServer): LoadTree, LoadNexus
	// and Commit take the same per-shard writer mutexes as its writes, so
	// neither side ever captures the other's half-applied state.
	be *server.Backend

	// The tree and species repositories, as be holds them. Writes through
	// them directly bypass the writer mutexes; their callers own the
	// one-writer-per-shard contract. The query history is written through
	// LoadTree, LoadNexus and Record.
	Trees   *treestore.Store
	Species *species.Repo
}

// Open opens (creating if needed) a repository stored at path. A plain
// page file opens single-sharded (today's on-disk format, unchanged); a
// directory with a shard manifest opens with the shard count the manifest
// records.
func Open(path string) (*Repository, error) { return OpenSharded(path, 0) }

// OpenSharded opens (creating if needed) a repository with n shards.
//
// n == 0 means "whatever the layout already is": the manifest's count for
// a sharded directory, 1 for a plain page file or a fresh path. n == 1
// creates (or opens) the single page file layout at path — byte-compatible
// with repositories from before sharding existed. n > 1 creates a
// directory at path holding a manifest plus one subdirectory per shard,
// each with its own page file and WAL; reopening validates n against the
// manifest and rejects mismatches, since trees hashed under a different
// modulus would be looked up on the wrong shard.
func OpenSharded(path string, n int) (*Repository, error) {
	if n < 0 {
		return nil, fmt.Errorf("crimson: shard count %d, want >= 0", n)
	}
	st, statErr := os.Stat(path)
	switch {
	case statErr == nil && st.IsDir():
		m, err := shard.ReadManifest(path)
		if errors.Is(err, shard.ErrNoManifest) {
			// A pre-created directory (container volume mounts, provisioning
			// tools) may be initialized in place — but only if it is empty,
			// so a stray data directory is never silently claimed.
			entries, derr := os.ReadDir(path)
			if derr != nil {
				return nil, derr
			}
			if len(entries) > 0 {
				return nil, fmt.Errorf("crimson: %s is a non-empty directory without a shard manifest: %w", path, err)
			}
			if n <= 1 {
				return nil, fmt.Errorf("crimson: %s is an empty directory; pass --shards to initialize a sharded repository there (a 1-shard repository is a plain page file)", path)
			}
			if err := shard.WriteManifest(path, shard.NewManifest(n)); err != nil {
				return nil, err
			}
			return openShardDirs(path, n)
		}
		if err != nil {
			return nil, fmt.Errorf("crimson: %s is a directory but not a sharded repository: %w", path, err)
		}
		if err := m.Validate(n); err != nil {
			return nil, err
		}
		return openShardDirs(path, m.Shards)
	case statErr == nil && n > 1:
		return nil, fmt.Errorf("%w: repository at %s is a single page file (1 shard), --shards asked for %d",
			shard.ErrShardMismatch, path, n)
	case statErr == nil, n <= 1:
		// Existing page file, or a fresh single-shard repository: the
		// original one-file layout, byte for byte.
		db, err := relstore.OpenDB(path)
		if err != nil {
			return nil, err
		}
		r, err := assemble([]*relstore.DB{db})
		if err != nil {
			db.Close()
			return nil, err
		}
		return r, nil
	default:
		// Fresh sharded repository: directory, manifest, per-shard dirs.
		if err := os.MkdirAll(path, 0o755); err != nil {
			return nil, err
		}
		if err := shard.WriteManifest(path, shard.NewManifest(n)); err != nil {
			return nil, err
		}
		return openShardDirs(path, n)
	}
}

func openShardDirs(root string, n int) (*Repository, error) {
	dbs := make([]*relstore.DB, 0, n)
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(shard.Dir(root, i), 0o755); err != nil {
			shard.CloseAll(dbs)
			return nil, err
		}
		db, err := relstore.OpenDB(shard.PageFile(root, i))
		if err != nil {
			shard.CloseAll(dbs)
			return nil, fmt.Errorf("crimson: opening shard %d: %w", i, err)
		}
		dbs = append(dbs, db)
	}
	r, err := assemble(dbs)
	if err != nil {
		shard.CloseAll(dbs)
		return nil, err
	}
	return r, nil
}

// OpenMem opens an in-memory repository (no durability).
func OpenMem() *Repository { return OpenMemSharded(1) }

// OpenMemSharded opens an in-memory repository partitioned across n shards
// (no durability; used by tests and benchmarks exercising the sharded
// topology without disk).
func OpenMemSharded(n int) *Repository {
	dbs := make([]*relstore.DB, n)
	for i := range dbs {
		dbs[i] = relstore.OpenMemDB()
	}
	r, err := assemble(dbs)
	if err != nil {
		panic("crimson: assembling mem repository: " + err.Error())
	}
	return r
}

func assemble(dbs []*relstore.DB) (*Repository, error) {
	be, err := server.NewBackend(dbs)
	if err != nil {
		return nil, err
	}
	return &Repository{be: be, Trees: be.Trees, Species: be.Species}, nil
}

// OpenFollower opens (creating if needed) path as a streaming replica of
// the primary crimsond at primaryURL: it probes the primary for its
// shard count, opens every shard store in replica mode, starts the
// per-shard apply loops, waits under ctx for the initial catch-up (from
// the primary's ring of recent batches, else a full snapshot), and
// assembles a read-only Repository over the replica.
//
// The returned Repository serves snapshot reads that trail the primary
// by the apply lag. A replica store refuses writer handles, so writes fail
// until the follower is promoted (Follower.Promote, or the server's
// /v1/repl/promote); after that the same Repository takes them, each
// writer resolving its tables at its first write. Closing the Repository
// closes the replica stores; call Follower.Stop first.
func OpenFollower(ctx context.Context, path, primaryURL string) (*Repository, *Follower, error) {
	fl, err := repl.OpenFollower(path, primaryURL, nil)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Repository, *Follower, error) {
		fl.Stop()
		for _, st := range fl.Stores() {
			st.Close()
		}
		return nil, nil, err
	}
	fl.Start(ctx)
	if err := fl.WaitSynced(ctx); err != nil {
		return fail(fmt.Errorf("crimson: initial replica sync: %w", err))
	}
	dbs := make([]*relstore.DB, len(fl.Stores()))
	for i, st := range fl.Stores() {
		if dbs[i], err = relstore.NewOnStore(st); err != nil {
			return fail(err)
		}
	}
	r, err := assemble(dbs)
	if err != nil {
		return fail(err)
	}
	return r, fl, nil
}

// Shards reports the repository's shard count.
func (r *Repository) Shards() int { return r.be.Router.N() }

// SetReadCacheMB does nothing: each shard's buffer pool is its one page
// cache, and its frames keep the nodes decoded from their images. It stays
// because perfbench/ calls it, and goes with ROADMAP item 4.
func (r *Repository) SetReadCacheMB(int) {}

// Commit makes all buffered changes of every shard durable.
func (r *Repository) Commit() error {
	return r.CommitAsync().Wait()
}

// CommitAsync captures every shard's pending transaction, each under its
// shard's writer mutex and one shard at a time, and returns a waiter for
// their durability.
func (r *Repository) CommitAsync() *CommitWaiter { return r.be.CommitAsync() }

// Record appends a read query to the history with its result summary and
// commits it before returning. Read queries are recorded on shard 0 under
// its writer mutex, as crimsond records the ones it serves.
func (r *Repository) Record(q queryrepo.Query, summary string) (queryrepo.Entry, error) {
	e, w, err := r.be.Record(q, summary)
	if err == nil {
		err = w.Wait()
	}
	return e, err
}

// Checkpoint synchronously flushes every shard's committed pages to its
// page file and resets the WALs (a no-op for in-memory repositories).
func (r *Repository) Checkpoint() error {
	var errs []error
	for i, db := range r.be.DBs {
		if err := db.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// SetCheckpointPolicy adjusts every shard's background checkpointer: flush
// the writeback backlog once it reaches bytes (per shard), or after
// interval regardless. Non-positive values leave the respective knob at
// its default.
func (r *Repository) SetCheckpointPolicy(bytes int64, interval time.Duration) {
	for _, db := range r.be.DBs {
		db.SetCheckpointPolicy(bytes, interval)
	}
}

// CheckpointBacklog reports the total bytes of committed pages awaiting
// background checkpoint writeback, summed across shards.
func (r *Repository) CheckpointBacklog() int64 {
	var n int64
	for _, db := range r.be.DBs {
		n += db.Store().CheckpointBacklog()
	}
	return n
}

// WALSize reports the combined size of every shard's write-ahead log.
func (r *Repository) WALSize() int64 {
	var n int64
	for _, db := range r.be.DBs {
		n += db.Store().WALSize()
	}
	return n
}

// Check verifies the integrity of every table, tree and index in every
// shard of the repository (the CLI's fsck).
func (r *Repository) Check() error { return shard.CheckAll(r.be.DBs) }

// Close commits and closes every shard of the repository. All shards are
// closed even if one fails; failures come back joined.
func (r *Repository) Close() error { return shard.CloseAll(r.be.DBs) }

// LoadTree stores an in-memory tree under the given name with depth bound
// f, recording the load in the query history. Like LoadNexus, it commits
// before returning: a successful load — tree relations and its history
// record both, in one commit of the tree's shard — is durable even if the
// caller never calls Commit or Close, and a crash keeps both or neither.
// The load runs under its shard's writer mutex, so concurrent LoadTree
// calls for trees on different shards never publish each other's
// half-applied state. progress is never called with a writer mutex held:
// the apply's lines are said once the mutex is released, so it may call
// back into the repository — Commit included.
func (r *Repository) LoadTree(name string, t *Tree, f int, progress treestore.Progress) (*LoadedTree, error) {
	return r.LoadTreeOpts(name, t, f, LoadOptions{}, progress)
}

// LoadTreeOpts is LoadTree with ingest-pipeline options: staging fans out
// across opts.Workers goroutines and per-stage timings land in
// opts.Metrics. The stored relations are identical at every worker count.
func (r *Repository) LoadTreeOpts(name string, t *Tree, f int, opts LoadOptions, progress treestore.Progress) (*LoadedTree, error) {
	return r.load(name, t, nil, f, opts, progress)
}

// LoadNexus loads the first tree of a NEXUS document (under its TREE name
// unless name overrides it) and stores any CHARACTERS block in the
// Species Repository under kind "seq:nexus".
func (r *Repository) LoadNexus(doc *NexusDocument, name string, f int, progress treestore.Progress) (*LoadedTree, error) {
	return r.LoadNexusOpts(doc, name, f, LoadOptions{}, progress)
}

// LoadNexusOpts is LoadNexus with ingest-pipeline options; see
// LoadTreeOpts.
func (r *Repository) LoadNexusOpts(doc *NexusDocument, name string, f int, opts LoadOptions, progress treestore.Progress) (*LoadedTree, error) {
	if len(doc.Trees) == 0 {
		return nil, fmt.Errorf("crimson: NEXUS document has no trees")
	}
	if name == "" {
		name = doc.Trees[0].Name
	}
	return r.load(name, doc.Trees[0].Tree, doc.Characters, f, opts, progress)
}

// load is the facade's entrance to the one load path, Backend.Load. The
// tree is validated, indexed and staged before any mutex is taken
// (treestore.PrepareLoad), and the one commit — the tree's shard, carrying
// the tree, any sequences and the history entry — is waited for after the
// mutex is released, so its WAL flush coalesces with other writers'.
func (r *Repository) load(name string, t *Tree, chars *nexus.Characters, f int, opts LoadOptions, progress treestore.Progress) (*LoadedTree, error) {
	p, err := r.Trees.PrepareLoad(name, t, f, opts, progress)
	if err != nil {
		return nil, err
	}
	w, err := r.be.Load(context.TODO(), p, chars)
	if err != nil {
		return nil, err
	}
	if chars != nil {
		progress.Say("stored %d sequences in the species repository", len(chars.Order))
	}
	if err := w.Wait(); err != nil {
		return nil, fmt.Errorf("crimson: committing shard %d: %w", r.be.Router.Place(name), err)
	}
	p.Committed()
	return p, nil
}

// Snapshot is a consistent point-in-time read view of the whole repository,
// and the only way to read it. It pins an epoch vector — each shard's last
// committed epoch, one pin per shard — so queries through it run lock-free:
// they never wait on a concurrent LoadTree or Delete, and they see every
// tree, species record and history entry exactly as committed on its shard
// — a tree mid-load is invisible, a tree mid-delete is still whole.
// Cross-shard reads (listing trees) are consistent per shard. Close releases
// the pins so the storage engines can reclaim superseded pages.
type Snapshot struct {
	sns []*relstore.Snap // one pinned snapshot per shard
	// TreeSnap, SpeciesView and QueryView expose the three repositories'
	// snapshot read surfaces.
	TreeSnap    *treestore.Snap
	SpeciesView *species.View
	QueryView   *queryrepo.View

	// unwatch detaches the context watcher a SnapshotCtx installed
	// (nil for plain Snapshot).
	unwatch func() bool
}

// Snapshot pins the current committed state of every shard for lock-free
// reading.
func (r *Repository) Snapshot() *Snapshot {
	sns := make([]*relstore.Snap, len(r.be.DBs))
	for i, db := range r.be.DBs {
		sns[i] = db.Snapshot()
	}
	return &Snapshot{
		sns:         sns,
		TreeSnap:    treestore.SnapOnShards(sns, r.be.Router),
		SpeciesView: species.ViewOnShards(sns, r.be.Router),
		QueryView:   queryrepo.ViewOnShards(sns),
	}
}

// SnapshotCtx pins the current committed state of every shard and ties the
// pins' lifetime to ctx: when the context is cancelled the snapshot closes
// itself, so an abandoned request can never keep epoch pins alive and
// stall page reclamation behind a dead reader. Close remains the normal
// release path (idempotent, and it detaches the context watcher); the
// cancellation hook is the backstop that makes release guaranteed rather
// than best-effort. Returns ctx's error if it is already done.
//
// Contract: queries through a SnapshotCtx snapshot must run under ctx or
// a context derived from it. Cancellation both aborts those queries
// cooperatively and releases the pins, after which the snapshot is
// invalid — a query still in flight at that instant fails with the
// context's error (the engine reports any read that races the release as
// the cancellation). Reading through the snapshot with an unrelated
// context after cancellation is the same misuse as reading after Close.
func (r *Repository) SnapshotCtx(ctx context.Context) (*Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := r.Snapshot()
	// The watcher releases the pins directly rather than calling Close:
	// Close reads s.unwatch, which is being assigned right below — the
	// pin-only path keeps an immediate cancellation from racing that
	// write.
	stop := context.AfterFunc(ctx, s.closePins)
	s.unwatch = stop
	return s, nil
}

// Tree opens a stored tree as of the snapshot.
func (s *Snapshot) Tree(name string) (*StoredTree, error) { return s.TreeSnap.Tree(name) }

// Trees lists the trees stored as of the snapshot.
func (s *Snapshot) Trees() ([]TreeInfo, error) { return s.TreeSnap.TreesCtx(context.Background()) }

// TreesPage lists up to limit trees whose name sorts strictly after the
// cursor name (limit <= 0 means all), merged across shards in name order,
// returning the name to resume from when more remain ("" once exhausted).
// Paging over one snapshot yields one consistent listing no matter how
// many loads and deletes land in between.
func (s *Snapshot) TreesPage(ctx context.Context, after string, limit int) ([]TreeInfo, string, error) {
	return s.TreeSnap.TreesPage(ctx, after, limit)
}

// Epoch reports the sum of the pinned per-shard epochs: a scalar that
// advances whenever any shard commits. Use Epochs for the vector.
func (s *Snapshot) Epoch() uint64 {
	var sum uint64
	for _, rs := range s.sns {
		sum += rs.Epoch()
	}
	return sum
}

// Epochs reports the pinned epoch vector, one entry per shard.
func (s *Snapshot) Epochs() []uint64 {
	out := make([]uint64, len(s.sns))
	for i, rs := range s.sns {
		out[i] = rs.Epoch()
	}
	return out
}

// Check verifies the integrity of the snapshot's state — every shard —
// without blocking any writer.
func (s *Snapshot) Check() error {
	for i, rs := range s.sns {
		if err := rs.Check(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Close releases every shard's epoch pin. Safe to call multiple times,
// and safe to race with the cancellation hook a SnapshotCtx installs —
// each shard pin releases exactly once.
func (s *Snapshot) Close() {
	if s.unwatch != nil {
		s.unwatch()
	}
	s.closePins()
}

// closePins releases the per-shard epoch pins; idempotent per shard.
func (s *Snapshot) closePins() {
	for _, rs := range s.sns {
		rs.Close()
	}
}

// MVCC reports the storage engines' state aggregated across shards: the
// epoch is the sum of per-shard epochs (so it advances on any commit),
// open snapshots and pages awaiting reclamation are totals. Use MVCCShards
// for the per-shard breakdown.
func (r *Repository) MVCC() MVCCStats {
	var agg MVCCStats
	for _, db := range r.be.DBs {
		mv := db.MVCC()
		agg.Epoch += mv.Epoch
		agg.OpenSnapshots += mv.OpenSnapshots
		agg.PendingReclaimPages += mv.PendingReclaimPages
	}
	return agg
}

// MVCCShards reports each shard's epoch, open snapshot count and
// reclamation backlog — the per-shard view behind the aggregate MVCC.
func (r *Repository) MVCCShards() []MVCCStats {
	out := make([]MVCCStats, len(r.be.DBs))
	for i, db := range r.be.DBs {
		out[i] = db.MVCC()
	}
	return out
}

// NewServer builds crimsond — the HTTP/JSON server — over this
// repository. Start it with Start/ListenAndServe (or mount it as an
// http.Handler) and drive it with the typed client in repro/client:
//
//	srv := repo.NewServer(crimson.ServerConfig{Addr: ":8321"})
//	if err := srv.Start(); err != nil { ... }
//	defer srv.Shutdown(context.Background())
func (r *Repository) NewServer(cfg ServerConfig) *Server { return server.New(r.be, nil, cfg) }

// NewFollowerServer builds crimsond over a replica repository opened
// with OpenFollower. The server rejects writes with 403, serves every
// read at the shard's last applied epoch, reports apply lag in
// /v1/stats and /metrics, and turns into a writable primary on
// POST /v1/repl/promote.
func (r *Repository) NewFollowerServer(fl *Follower, cfg ServerConfig) *Server {
	return server.New(r.be, fl, cfg)
}

// EngineCounters snapshots the process-global storage-engine work
// counters (B+tree descents, cells decoded, rows scanned, buffer-pool
// hits/misses, pages read/written, COW pages, WAL bytes/syncs). They
// tick on every engine operation regardless of tracing configuration;
// zero counters are omitted.
func EngineCounters() map[string]int64 { return obs.Engine.Snapshot() }

// TraceContext installs a fresh root span named name into ctx and
// returns the derived context plus the span. Engine work done under the
// returned context is attributed to the span; call End then Summary on
// it to read the tree. Embedders get the same per-request attribution
// crimsond's ?debug=trace provides.
func TraceContext(ctx context.Context, name string) (context.Context, *Span) {
	root := obs.NewRoot(name)
	return obs.ContextWithSpan(ctx, root), root
}

// --- In-memory pipeline helpers -------------------------------------------

// ParseNewick parses one Newick tree.
func ParseNewick(s string) (*Tree, error) { return newick.Parse(s) }

// ParseNewickWorkers parses one Newick tree with a bounded parsing
// fan-out; workers <= 0 means GOMAXPROCS. The result is identical to
// ParseNewick at every worker count.
func ParseNewickWorkers(s string, workers int) (*Tree, error) { return newick.ParseWorkers(s, workers) }

// FormatNewick serializes a tree as Newick with lengths.
func FormatNewick(t *Tree) string { return newick.String(t) }

// ParseNexus parses a NEXUS document.
func ParseNexus(rd io.Reader) (*NexusDocument, error) { return nexus.Parse(rd) }

// WriteNexus serializes a NEXUS document.
func WriteNexus(w io.Writer, doc *NexusDocument) error { return nexus.Write(w, doc) }

// ReadNewickFile parses the first tree in a Newick file.
func ReadNewickFile(path string) (*Tree, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return newick.Parse(string(raw))
}

// BuildIndex builds the hierarchical label index with depth bound f.
func BuildIndex(t *Tree, f int) (*Index, error) { return core.Build(t, f) }

// NewPlanner prepares repeated projections over an in-memory tree.
func NewPlanner(t *Tree, ix *Index) *Planner { return project.NewPlanner(t, ix) }

// Project computes the projection of t over the named leaves (Figure 2).
func Project(t *Tree, ix *Index, names []string) (*Tree, error) {
	return project.NewPlanner(t, ix).ProjectNames(names)
}

// SampleUniform draws k distinct random leaves.
func SampleUniform(t *Tree, k int, rng *rand.Rand) ([]*Node, error) {
	return sample.Uniform(t, k, rng)
}

// SampleWithTime samples k species with respect to an evolutionary time
// (§2.2 of the paper).
func SampleWithTime(t *Tree, time float64, k int, rng *rand.Rand) ([]*Node, error) {
	return sample.WithRespectToTime(t, time, k, rng)
}

// PatternMatch answers the tree pattern match query of §2.2.
func PatternMatch(t *Tree, ix *Index, pattern *Tree) (*MatchResult, error) {
	return treecmp.PatternMatch(project.NewPlanner(t, ix), pattern)
}

// RobinsonFoulds is the rooted clade-based RF distance.
func RobinsonFoulds(a, b *Tree) (int, error) { return treecmp.RobinsonFoulds(a, b) }

// RobinsonFouldsUnrooted is the split-based RF distance.
func RobinsonFouldsUnrooted(a, b *Tree) (int, error) { return treecmp.RobinsonFouldsUnrooted(a, b) }

// MajorityConsensus builds the majority-rule consensus tree.
func MajorityConsensus(trees []*Tree) (*Tree, error) { return treecmp.MajorityConsensus(trees) }

// GenerateYule generates an ultrametric pure-birth gold-standard tree.
func GenerateYule(n int, lambda float64, rng *rand.Rand) (*Tree, error) {
	return treegen.Yule(n, lambda, rng)
}

// GenerateBirthDeath generates a birth–death gold-standard tree.
func GenerateBirthDeath(n int, lambda, mu float64, keepExtinct bool, rng *rand.Rand) (*Tree, error) {
	return treegen.BirthDeath(n, lambda, mu, keepExtinct, rng)
}

// GenerateCaterpillar generates the maximally deep pathological tree.
func GenerateCaterpillar(n int, rng *rand.Rand) (*Tree, error) {
	return treegen.Caterpillar(n, rng)
}

// GenerateBalanced generates a complete binary tree of the given depth.
func GenerateBalanced(depth int, rng *rand.Rand) (*Tree, error) {
	return treegen.Balanced(depth, rng)
}

// SimulateSequences evolves sequences down the tree.
func SimulateSequences(t *Tree, cfg SeqConfig, rng *rand.Rand) (*Alignment, error) {
	return seqsim.Evolve(t, cfg, rng)
}

// RunBenchmark executes a Benchmark Manager run (§2.2, Figure 3).
func RunBenchmark(cfg BenchConfig) (*BenchReport, error) { return benchmark.Run(cfg) }

// PaperFigure1 returns the 5-species example tree from Figure 1.
func PaperFigure1() *Tree { return phylo.PaperFigure1() }

// ASCII renders a tree as a terminal dendrogram.
func ASCII(t *Tree) string { return viz.ASCII(t) }

// DOT renders a tree in Graphviz format.
func DOT(t *Tree, name string) string { return viz.DOT(t, name) }

// LibSea renders a tree in Walrus's LibSea input format.
func LibSea(t *Tree, name string) string { return viz.LibSea(t, name) }
