// Package storage implements the disk substrate Crimson stores trees in: a
// page file with a free list, an LRU buffer pool, a copy-on-write B+tree
// with variable length keys and overflow chains for large values, a
// physical redo write-ahead log, and epoch-based multi-version concurrency
// control. The paper loads phylogenetic trees "into a relational database";
// this package is the storage engine underneath that relational layer (see
// package relstore).
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// PageSize is the fixed size of every page in a Crimson page file.
const PageSize = 4096

const (
	metaMagic = "CRIMSONP"
	// metaVersion 2 dropped the leaf pages' stored sibling-link slot,
	// shrinking the leaf header; version-1 files are rejected on open.
	metaVersion = 2

	// NumRoots is the number of named root slots kept in the meta page.
	// Slot 0 is reserved by the relational layer for its catalog tree.
	NumRoots = 8
)

// Common storage errors.
var (
	ErrClosed      = errors.New("storage: closed")
	ErrBadMeta     = errors.New("storage: bad meta page")
	ErrPageBounds  = errors.New("storage: page id out of bounds")
	ErrKeyTooLarge = errors.New("storage: key too large")
	ErrNotFound    = errors.New("storage: key not found")
	// ErrCorruptPage is returned when a page's bytes do not decode as what
	// the reader was told to expect (a torn or damaged node, an overflow
	// chain running off its pages). The wrapping error names the page.
	ErrCorruptPage = errors.New("storage: corrupt page")
)

// PageID identifies a page within a page file. Page 0 is the meta page and
// is never handed out by Allocate.
type PageID uint64

// Pager is the raw page I/O abstraction shared by the on-disk and in-memory
// backends. Implementations are internally synchronized: concurrent reads
// (and the Store's commit-time writes) may interleave with pool misses.
type Pager interface {
	// ReadPage reads the page into buf, which must be PageSize long.
	ReadPage(id PageID, buf []byte) error
	// WritePage writes buf (PageSize long) to the page.
	WritePage(id PageID, buf []byte) error
	// WritePages writes a batch of page images, sorted ascending by id.
	// Implementations may coalesce runs of adjacent ids into single
	// larger writes (the checkpoint fast path).
	WritePages(pages []DirtyPage) error
	// Grow extends the file by one page and returns its id.
	Grow() (PageID, error)
	// PageCount returns the number of pages, including the meta page.
	PageCount() PageID
	// Sync flushes written pages to stable media.
	Sync() error
	// Close releases resources.
	Close() error
}

// filePager is a Pager backed by a single OS file. A RWMutex guards the
// page count and file handle; page reads and writes at distinct offsets
// proceed in parallel under the read lock.
type filePager struct {
	mu    sync.RWMutex
	f     *os.File
	count PageID
}

// OpenFilePager opens (creating if necessary) a page file at path. A fresh
// file has zero pages; callers are expected to initialize a meta page.
func OpenFilePager(path string) (Pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open page file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat page file: %w", err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: page file %s has size %d, not a multiple of %d", path, st.Size(), PageSize)
	}
	return &filePager{f: f, count: PageID(st.Size() / PageSize)}, nil
}

func (p *filePager) ReadPage(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.f == nil {
		return ErrClosed
	}
	if id >= p.count {
		return fmt.Errorf("%w: read %d of %d", ErrPageBounds, id, p.count)
	}
	if _, err := p.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

func (p *filePager) WritePage(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.f == nil {
		return ErrClosed
	}
	if id >= p.count {
		return fmt.Errorf("%w: write %d of %d", ErrPageBounds, id, p.count)
	}
	if _, err := p.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// maxCoalescePages caps one coalesced checkpoint write (256 pages = 1 MiB),
// bounding the staging buffer while still amortizing syscall costs.
const maxCoalescePages = 256

func (p *filePager) WritePages(pages []DirtyPage) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.f == nil {
		return ErrClosed
	}
	var buf []byte
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j].ID == pages[j-1].ID+1 && j-i < maxCoalescePages {
			j++
		}
		run := pages[i:j]
		if last := run[len(run)-1].ID; last >= p.count {
			return fmt.Errorf("%w: write %d of %d", ErrPageBounds, last, p.count)
		}
		if len(run) == 1 {
			if _, err := p.f.WriteAt(run[0].Data[:PageSize], int64(run[0].ID)*PageSize); err != nil {
				return fmt.Errorf("storage: write page %d: %w", run[0].ID, err)
			}
		} else {
			need := len(run) * PageSize
			if cap(buf) < need {
				buf = make([]byte, need)
			}
			buf = buf[:need]
			for k, pg := range run {
				copy(buf[k*PageSize:(k+1)*PageSize], pg.Data)
			}
			if _, err := p.f.WriteAt(buf, int64(run[0].ID)*PageSize); err != nil {
				return fmt.Errorf("storage: write pages %d..%d: %w", run[0].ID, run[len(run)-1].ID, err)
			}
		}
		i = j
	}
	return nil
}

func (p *filePager) Grow() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return 0, ErrClosed
	}
	id := p.count
	var zero [PageSize]byte
	if _, err := p.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: grow to page %d: %w", id, err)
	}
	p.count++
	return id, nil
}

func (p *filePager) PageCount() PageID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.count
}

func (p *filePager) Sync() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.f == nil {
		return ErrClosed
	}
	return p.f.Sync()
}

func (p *filePager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return nil
	}
	err := p.f.Close()
	p.f = nil
	return err
}

// memPager is a Pager kept entirely in memory. It is used for tests, for
// ephemeral repositories, and as the default backend of in-memory indexes.
type memPager struct {
	mu     sync.RWMutex
	pages  [][]byte
	closed bool
}

// NewMemPager returns an empty in-memory pager.
func NewMemPager() Pager { return &memPager{} }

func (p *memPager) ReadPage(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if int(id) >= len(p.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrPageBounds, id, len(p.pages))
	}
	copy(buf[:PageSize], p.pages[id])
	return nil
}

func (p *memPager) WritePage(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if int(id) >= len(p.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageBounds, id, len(p.pages))
	}
	copy(p.pages[id], buf[:PageSize])
	return nil
}

func (p *memPager) WritePages(pages []DirtyPage) error {
	for _, pg := range pages {
		if err := p.WritePage(pg.ID, pg.Data); err != nil {
			return err
		}
	}
	return nil
}

func (p *memPager) Grow() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	p.pages = append(p.pages, make([]byte, PageSize))
	return PageID(len(p.pages) - 1), nil
}

func (p *memPager) PageCount() PageID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return PageID(len(p.pages))
}

func (p *memPager) Sync() error { return nil }

func (p *memPager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	return nil
}

// meta is the decoded form of page 0. The epoch counts commits: WAL
// recovery always lands on the root set and epoch of the last commit whose
// records fully reached the log, which is how a crashed store reopens on
// its last published state. The clean flag marks a shutdown that left no
// retired pages awaiting reclamation — opening with it unset is the
// signal that a reclamation sweep may find leaked pages. Pre-flag files
// read as unclean (the byte was always zero), which costs exactly one
// sweep on their first open with current code.
type meta struct {
	freeHead PageID
	roots    [NumRoots]PageID
	epoch    uint64
	clean    bool
}

const metaCleanOff = 24 + 8*NumRoots + 8

func (m *meta) encode(buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	copy(buf, metaMagic)
	binary.LittleEndian.PutUint32(buf[8:], metaVersion)
	binary.LittleEndian.PutUint32(buf[12:], PageSize)
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.freeHead))
	for i, r := range m.roots {
		binary.LittleEndian.PutUint64(buf[24+8*i:], uint64(r))
	}
	binary.LittleEndian.PutUint64(buf[24+8*NumRoots:], m.epoch)
	if m.clean {
		buf[metaCleanOff] = 1
	}
}

func (m *meta) decode(buf []byte) error {
	if string(buf[:8]) != metaMagic {
		return fmt.Errorf("%w: bad magic", ErrBadMeta)
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != metaVersion {
		return fmt.Errorf("%w: version %d", ErrBadMeta, v)
	}
	if ps := binary.LittleEndian.Uint32(buf[12:]); ps != PageSize {
		return fmt.Errorf("%w: page size %d", ErrBadMeta, ps)
	}
	m.freeHead = PageID(binary.LittleEndian.Uint64(buf[16:]))
	for i := range m.roots {
		m.roots[i] = PageID(binary.LittleEndian.Uint64(buf[24+8*i:]))
	}
	m.epoch = binary.LittleEndian.Uint64(buf[24+8*NumRoots:])
	m.clean = buf[metaCleanOff] == 1
	return nil
}

// Store couples a pager, a buffer pool and (for file-backed stores) a WAL
// into the transactional page store the rest of Crimson builds on. All
// mutations happen in the buffer pool; Commit makes them durable atomically
// and publishes a new epoch.
//
// Concurrency: the store is multi-version. Mutations (WriteCOW, WritePage,
// Allocate, Free, Retire, SetRoot, Commit, Close) serialize on the store
// mutex and must come from one writer at a time (package relstore enforces
// this with its database mutex). Reads — ReadPage — never take the store
// mutex: they take the page's immutable image from the buffer pool under
// its own short-lived latch and may run from any number of goroutines
// concurrently with the writer. Snapshot readers are safe because a
// committed page is never modified in place: writers copy-on-write onto
// fresh pages and the superseded pages are only reused after every snapshot
// that could see them has closed (see epoch.go). Nor is any page *image*
// ever modified: rewriting a page — a fresh one by its writer, a reused id,
// a replicated apply — installs a new image, so bytes a reader already holds
// stay what they were.
type Store struct {
	mu     sync.RWMutex
	pager  Pager
	pool   *BufferPool
	wal    *WAL
	meta   meta
	closed atomic.Bool

	// metaDirty records that meta has changed since its image was last
	// installed as page 0. The page is encoded once, when a commit is
	// prepared (writeMeta), not on every allocation, free and root change.
	metaDirty bool

	// fresh holds the pages allocated since the last commit. They are
	// invisible to every published state, so the writer may rewrite them
	// under the same id and retiring one frees it immediately.
	fresh map[PageID]struct{}

	// wasClean records whether the file carried the clean-shutdown flag
	// when opened (fresh stores count as clean: nothing can have leaked).
	wasClean bool

	// rcache, when non-nil, is the version-keyed decoded-node cache the
	// B+tree read paths consult before decoding pages (see readcache.go).
	// Held atomically so SetReadCacheBytes may flip it while readers run.
	rcache atomic.Pointer[readCache]

	// pubEpoch mirrors ep.current for lock-free reads: trees not pinned to
	// a snapshot key their cache entries by the last published epoch.
	pubEpoch atomic.Uint64

	ep epochs

	// wb holds committed page images awaiting page-file writeback, and gc
	// coalesces concurrent commits into shared WAL flushes. Both are nil /
	// unused for in-memory stores, which commit inline.
	wb   *writeback
	gc   groupQueue
	ckpt checkpointer

	// Checkpoint policy knobs (see SetCheckpointPolicy); zero means the
	// package default.
	ckptBytes    atomic.Int64
	ckptInterval atomic.Int64

	// replica marks a store opened as a replication follower: it never
	// stamps epochs or the clean-shutdown flag itself — every mutation
	// arrives pre-stamped through ApplyReplicated — so its page file stays
	// byte-compatible with the primary's. Promote flips it off; wasReplica
	// stays set so Close never stamps the clean flag on a file that may
	// carry snapshot-catch-up leaks (the reopen sweep reclaims them).
	replica    atomic.Bool
	wasReplica bool

	// commitHook, when set, receives every durable commit (epoch, roots and
	// immutable page images) right after its WAL fsync — the replication
	// publisher's feed. horizon is the reclaim horizon: the newest retire
	// epoch whose pages have been returned for reuse (see epoch.go).
	commitHook atomic.Pointer[func(ReplBatch)]
	horizon    atomic.Uint64

	// snapInvalid is an exclusive upper bound on snapshot epochs whose pages
	// may have been replaced by a replicated apply (see
	// InvalidateSnapshotsBelow). Pinned reads below it fail with
	// ErrSnapshotInvalidated instead of silently decoding mutated pages.
	snapInvalid atomic.Uint64
}

// SetReadCacheBytes (re)configures the decoded-node read cache. A size of
// zero or less disables it; any other value installs a fresh cache bounded
// to roughly that many bytes. Safe to call at any time — readers pick up
// the new cache on their next node read — though it is typically called
// once right after open.
func (s *Store) SetReadCacheBytes(n int64) {
	if n <= 0 {
		s.rcache.Store(nil)
		return
	}
	s.rcache.Store(newReadCache(n))
}

// ReadCacheStats reports the decoded-node cache's entry count and resident
// bytes (zeros when disabled).
func (s *Store) ReadCacheStats() (entries int, bytes int64) {
	if rc := s.rcache.Load(); rc != nil {
		return rc.stats()
	}
	return 0, 0
}

// dropCached removes every cached decode of the page. Must be called
// whenever a page id may come to name different bytes while a reader could
// still look it up: on free (the id becomes reallocatable) and on rewrites
// of writer-owned pages.
func (s *Store) dropCached(id PageID) {
	if rc := s.rcache.Load(); rc != nil {
		rc.drop(id)
	}
}

// Open opens a file-backed store, creating it if absent, and replays any
// committed WAL records left behind by a crash. The WAL lives next to the
// page file at path+".wal".
func Open(path string) (*Store, error) { return openFile(path, DefaultPoolSize) }

// openFile is Open with an explicit buffer-pool frame limit (tests shrink it
// to force evictions through the writeback read path).
func openFile(path string, poolLimit int) (*Store, error) {
	return openFileMode(path, poolLimit, false)
}

// OpenReplica opens a file-backed store as a replication follower: WAL
// recovery still runs (restart resumes on the last fully applied epoch),
// but the store never stamps epochs or the clean flag itself — all state
// advances arrive through ApplyReplicated. See Promote.
func OpenReplica(path string) (*Store, error) { return openFileMode(path, DefaultPoolSize, true) }

func openFileMode(path string, poolLimit int, replica bool) (*Store, error) {
	wal, err := openWAL(path + ".wal")
	if err != nil {
		return nil, err
	}
	pager, err := OpenFilePager(path)
	if err != nil {
		wal.Close()
		return nil, err
	}
	wb := newWriteback()
	// The pool reads through the writeback table: committed images that
	// have not been checkpointed yet must win over the (stale) page file.
	s := &Store{
		pager: pager,
		pool:  NewBufferPool(&writebackPager{Pager: pager, wb: wb}, poolLimit),
		wal:   wal,
		wb:    wb,
		fresh: make(map[PageID]struct{}),
	}
	s.replica.Store(replica)
	s.wasReplica = replica
	if err := s.init(); err != nil {
		pager.Close()
		wal.Close()
		return nil, err
	}
	s.startCheckpointer()
	return s, nil
}

// OpenMem opens a store backed entirely by memory (no WAL, no durability).
func OpenMem() *Store { return OpenMemWithPoolLimit(DefaultPoolSize) }

func (s *Store) init() error {
	// Recover committed pages from the WAL before reading the meta page,
	// so a crash between WAL commit and page-file write is invisible.
	if s.wal != nil {
		if err := s.wal.Recover(s.pager); err != nil {
			return err
		}
	}
	if s.pager.PageCount() == 0 {
		id, err := s.pager.Grow()
		if err != nil {
			return err
		}
		if id != 0 {
			return fmt.Errorf("storage: fresh file grew to page %d", id)
		}
		var buf [PageSize]byte
		s.meta.encode(buf[:])
		if err := s.pager.WritePage(0, buf[:]); err != nil {
			return err
		}
		if err := s.pager.Sync(); err != nil {
			return err
		}
		s.ep.init(s.meta.epoch, s.meta.roots)
		s.pubEpoch.Store(s.meta.epoch)
		s.wasClean = true // fresh store: nothing can have leaked
		return nil
	}
	var buf [PageSize]byte
	if err := s.pager.ReadPage(0, buf[:]); err != nil {
		return err
	}
	if err := s.meta.decode(buf[:]); err != nil {
		return err
	}
	s.ep.init(s.meta.epoch, s.meta.roots)
	s.pubEpoch.Store(s.meta.epoch)
	s.wasClean = s.meta.clean
	// A replica never commits on its own behalf: clearing the clean flag
	// here would stamp a local epoch and diverge the file from the primary.
	// The flag is handled at Promote time instead.
	if s.meta.clean && !s.replica.Load() {
		// Clear the flag durably (through the WAL) before anyone mutates:
		// if this session crashes — even without ever committing, after
		// growing the file inside an uncommitted transaction — the next
		// open sees an unclean file and sweeps.
		s.meta.clean = false
		s.metaDirty = true
		if err := s.commitSync(); err != nil {
			return err
		}
		// Checkpoint right away so a freshly opened store starts with an
		// empty WAL, as it always has.
		if err := s.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// commitSync prepares and flushes one commit synchronously. Used on paths
// with exclusive access to the store (init, Close) where coalescing with
// other committers is impossible by construction.
func (s *Store) commitSync() error {
	req, err := s.prepareLocked()
	if err != nil {
		return err
	}
	if req == nil {
		return nil
	}
	return s.gc.wait(s, req)
}

// WasCleanShutdown reports whether the store was last closed with no
// retired pages awaiting reclamation. When false, crash-leaked pages may
// exist and callers that know the full root topology (package relstore)
// should run a reclamation sweep.
func (s *Store) WasCleanShutdown() bool { return s.wasClean }

// Allocate returns a page available for use, reusing freed pages first.
// Allocated pages count as fresh until the next commit: the writer may
// rewrite them under the same id, since no published state can reference
// them.
func (s *Store) Allocate() (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocate()
}

func (s *Store) allocate() (PageID, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if s.meta.freeHead != 0 {
		id := s.meta.freeHead
		link, err := s.pool.Get(id)
		if err != nil {
			return 0, err
		}
		s.meta.freeHead = PageID(binary.LittleEndian.Uint64(link))
		s.metaDirty = true
		s.fresh[id] = struct{}{}
		return id, nil
	}
	id, err := s.pool.Grow()
	if err != nil {
		return 0, err
	}
	s.fresh[id] = struct{}{}
	return id, nil
}

// Free returns a page to the free list for immediate reuse. Callers must
// know that no committed state or open snapshot can reference the page;
// for pages superseded by copy-on-write use Retire instead.
func (s *Store) Free(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	delete(s.fresh, id)
	return s.free(id)
}

func (s *Store) free(id PageID) error {
	// The id is about to become reallocatable: no reader may resolve a
	// cached decode of its old contents once it is reused.
	s.dropCached(id)
	link := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(link, uint64(s.meta.freeHead))
	if err := s.pool.Put(id, link); err != nil {
		return err
	}
	s.meta.freeHead = id
	s.metaDirty = true
	return nil
}

// Retire marks a page as superseded. A fresh page (allocated since the
// last commit) was never visible to anyone and is freed immediately; a
// committed page enters the epoch-reclamation pipeline and returns to the
// free list once the superseding commit has published and every snapshot
// that could reference it has closed.
func (s *Store) Retire(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.retire(id)
}

func (s *Store) retire(id PageID) error {
	if _, ok := s.fresh[id]; ok {
		delete(s.fresh, id)
		return s.free(id)
	}
	// Attribute to the last *prepared* epoch (meta.epoch), not the published
	// one: with group commit a prepared-but-unpublished epoch may still
	// reference this page, and it must not free before that epoch publishes.
	s.ep.retireAt(s.meta.epoch, id)
	return nil
}

// Writable reports whether the writer may rewrite the page under its id:
// true only for pages allocated since the last commit.
func (s *Store) Writable(id PageID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.fresh[id]
	return ok
}

// writeMeta installs the meta page's image in the buffer pool, as part of
// the commit being prepared. Errors are impossible for page 0 once the store
// is open.
func (s *Store) writeMeta() {
	img := make([]byte, PageSize)
	s.meta.encode(img)
	if err := s.pool.Put(0, img); err != nil {
		panic("storage: write meta: " + err.Error())
	}
	s.metaDirty = false
}

// Root returns the page id stored in the named root slot (0 if unset).
// This is the writer's working root; snapshot readers use Snap.Root.
func (s *Store) Root(slot int) PageID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.meta.roots[slot]
}

// SetRoot records a named root page id in the meta page. The new root is
// not visible to snapshots until Commit publishes it.
func (s *Store) SetRoot(slot int, id PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.meta.roots[slot] = id
	s.metaDirty = true
}

// ReadPage returns the image of the page via the buffer pool. The slice is
// the pool's own immutable image, not a copy: the caller must not write
// into it and may hold it indefinitely — a later rewrite of the page
// installs a new image and leaves this one as it was. Reads never take the
// store mutex, so they proceed while a writer mutates other pages — the
// foundation of non-blocking snapshot reads.
func (s *Store) ReadPage(id PageID) ([]byte, error) {
	return s.readPage(id, nil)
}

// readPage is the counted read chokepoint: buffer-pool hits and misses
// (each miss is one page read) feed the global engine counters always, and
// the per-request set c when a trace is active (c nil-safe).
func (s *Store) readPage(id PageID, c *obs.Counters) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	img, hit, err := s.pool.page(id)
	if err != nil {
		return nil, err
	}
	if hit {
		obs.Engine.Add(obs.CtrPoolHits, 1)
		c.Add(obs.CtrPoolHits, 1)
	} else {
		obs.Engine.Add(obs.CtrPoolMisses, 1)
		obs.Engine.Add(obs.CtrPagesRead, 1)
		c.Add(obs.CtrPoolMisses, 1)
		c.Add(obs.CtrPagesRead, 1)
	}
	return img, nil
}

// WritePage installs img as the page's new image via the buffer pool.
// Ownership of img passes to the store: the caller must not modify it
// afterwards. Callers must own the page (fresh, or provably unreferenced by
// any published state); COW paths use WriteCOW.
func (s *Store) WritePage(id PageID, img []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	// The page has new contents: any cached decode of it is now stale.
	s.dropCached(id)
	return s.pool.Put(id, img)
}

// WriteCOW writes a page image with copy-on-write semantics: a fresh page
// keeps its id and gets the new image; a committed page is left untouched,
// the image lands on a newly allocated page, and the old page is retired.
// The returned id is where the image now lives. As with WritePage,
// ownership of img passes to the store.
func (s *Store) WriteCOW(id PageID, img []byte) (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if _, ok := s.fresh[id]; ok {
		// Fresh pages keep their id; drop any cached decode.
		s.dropCached(id)
		return id, s.pool.Put(id, img)
	}
	nid, err := s.allocate()
	if err != nil {
		return 0, err
	}
	if err := s.pool.Put(nid, img); err != nil {
		return 0, err
	}
	if err := s.retire(id); err != nil {
		return 0, err
	}
	obs.Engine.Add(obs.CtrCOWPages, 1)
	return nid, nil
}

// Commit makes all buffered mutations durable and publishes them as a new
// epoch. For file-backed stores the dirty pages are appended to the WAL with
// a commit record and synced — the WAL fsync is the durability boundary;
// the page-file writeback happens asynchronously in the checkpointer (see
// checkpoint.go), and concurrent commits coalesce into shared WAL flushes
// (see groupcommit.go). In-memory stores simply clear dirty flags. After the
// flush the root set and epoch become the published state new snapshots
// read, and pages retired in superseded epochs are reclaimed if no snapshot
// still pins them.
func (s *Store) Commit() error {
	return s.CommitAsync().Wait()
}

// PageCount reports the current number of pages, including the meta page.
func (s *Store) PageCount() PageID {
	return s.pager.PageCount()
}

// Pool exposes the buffer pool (used by tests).
func (s *Store) Pool() *BufferPool { return s.pool }

// OpenMemWithPoolLimit opens an in-memory store whose buffer pool holds at
// most limit frames — used by tests to force eviction pressure.
func OpenMemWithPoolLimit(limit int) *Store {
	pager := NewMemPager()
	s := &Store{pager: pager, pool: NewBufferPool(pager, limit), fresh: make(map[PageID]struct{})}
	if err := s.init(); err != nil {
		// The in-memory pager cannot fail on a fresh store.
		panic("storage: init mem store: " + err.Error())
	}
	return s
}

// Close commits outstanding changes, runs a final synchronous checkpoint
// and releases the underlying files.
func (s *Store) Close() error {
	// Stop the background checkpointer first so no flush races the final
	// synchronous passes below.
	s.stopCheckpointer()
	// Two commits: the first flushes the transaction, and its reclamation
	// pass may push pages onto the free list (dirtying the free-list
	// links); the second makes those durable so reopened stores reuse them.
	for i := 0; i < 2; i++ {
		if err := s.Commit(); err != nil && !errors.Is(err, ErrClosed) {
			return err
		}
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return nil
	}
	// Stamp the clean-shutdown flag — but only if no retired pages are
	// still pending (a snapshot left open across Close pins them, and they
	// would leak); an unclean file tells the next open to sweep them back.
	s.ep.mu.Lock()
	pending := s.ep.pendingN
	s.ep.mu.Unlock()
	var cleanErr error
	// Replicas skip the clean stamp: it would advance the epoch past the
	// primary's, and the next open resyncs/sweeps anyway. Promoted
	// replicas skip it too — snapshot catch-ups synthesize an empty free
	// list, and only the reopen sweep provably reclaims what that leaked.
	if pending == 0 && !s.wasReplica {
		s.meta.clean = true
		s.metaDirty = true
		cleanErr = s.commitSync()
	}
	s.mu.Unlock()
	if cleanErr != nil {
		return cleanErr
	}
	// Final synchronous checkpoint: drain the writeback table into the page
	// file and truncate the WAL, so a cleanly closed store reopens without
	// replay work.
	if s.wb != nil {
		if err := s.Checkpoint(); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.closed.Store(true)
	// Release anyone blocked on an epoch or a snapshot close: nothing will
	// move this store again.
	s.ep.mu.Lock()
	s.ep.closed = true
	s.ep.wakeLocked()
	s.ep.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			s.pager.Close()
			return err
		}
	}
	return s.pager.Close()
}
