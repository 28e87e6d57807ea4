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
	// metaVersion 4 lists pending pages too (freelist.go). Version 3, the
	// same layout, and version 2, whose free list was a chain of link
	// pages, listed reusable pages only: an unclean one opens with its list
	// incomplete (see meta). Version-1 files are rejected.
	metaVersion = 4

	// NumRoots is the number of named root slots kept in the meta page.
	// Slot 0 is reserved by the relational layer for its catalog tree.
	NumRoots = 8
)

// Common storage errors.
var (
	errClosed      = errors.New("storage: closed")
	errBadMeta     = errors.New("storage: bad meta page")
	errPageBounds  = errors.New("storage: page id out of bounds")
	ErrKeyTooLarge = errors.New("storage: key too large")
	// errCorruptPage is returned when a page's bytes do not decode as what
	// the reader was told to expect (a torn or damaged node, an overflow
	// chain running off its pages). The wrapping error names the page.
	errCorruptPage = errors.New("storage: corrupt page")
)

// PageID identifies a page within a page file. Page 0 is the meta page and
// is never handed out by allocate.
type PageID uint64

// pageFile is the raw page I/O abstraction shared by the on-disk and in-memory
// backends. Implementations are internally synchronized: concurrent reads
// (and the Store's commit-time writes) may interleave with pool misses.
type pageFile interface {
	// ReadPage reads the page into buf, which must be PageSize long.
	ReadPage(id PageID, buf []byte) error
	// writePage writes buf (PageSize long) to the page.
	writePage(id PageID, buf []byte) error
	// writePages writes a batch of page images, sorted ascending by id.
	// Implementations may coalesce runs of adjacent ids into single
	// larger writes (the checkpoint fast path).
	writePages(pages []DirtyPage) error
	// Grow extends the file by one page and returns its id.
	Grow() (PageID, error)
	// PageCount returns the number of pages, including the meta page.
	PageCount() PageID
	// Sync flushes written pages to stable media.
	sync() error
	// Close releases resources.
	Close() error
}

// filePager is a pageFile backed by a single OS file. A RWMutex guards the
// page count and file handle; page reads and writes at distinct offsets
// proceed in parallel under the read lock.
type filePager struct {
	mu    sync.RWMutex
	f     *os.File
	count PageID
}

// openFilePager opens (creating if necessary) a page file at path. A fresh
// file has zero pages; callers are expected to initialize a meta page.
func openFilePager(path string) (pageFile, error) {
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
		return errClosed
	}
	if id >= p.count {
		return fmt.Errorf("%w: read %d of %d", errPageBounds, id, p.count)
	}
	if _, err := p.f.ReadAt(buf[:PageSize], int64(id)*PageSize); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

func (p *filePager) writePage(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.f == nil {
		return errClosed
	}
	if id >= p.count {
		return fmt.Errorf("%w: write %d of %d", errPageBounds, id, p.count)
	}
	if _, err := p.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// maxCoalescePages caps one coalesced checkpoint write (256 pages = 1 MiB),
// bounding the staging buffer while still amortizing syscall costs.
const maxCoalescePages = 256

func (p *filePager) writePages(pages []DirtyPage) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.f == nil {
		return errClosed
	}
	var buf []byte
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j].ID == pages[j-1].ID+1 && j-i < maxCoalescePages {
			j++
		}
		run := pages[i:j]
		if last := run[len(run)-1].ID; last >= p.count {
			return fmt.Errorf("%w: write %d of %d", errPageBounds, last, p.count)
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
		return 0, errClosed
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

func (p *filePager) sync() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.f == nil {
		return errClosed
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

// memPager is a pageFile kept entirely in memory. It is used for tests, for
// ephemeral repositories, and as the default backend of in-memory indexes.
type memPager struct {
	mu     sync.RWMutex
	pages  [][]byte
	closed bool
}

// newMemPager returns an empty in-memory pager.
func newMemPager() pageFile { return &memPager{} }

func (p *memPager) ReadPage(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return errClosed
	}
	if int(id) >= len(p.pages) {
		return fmt.Errorf("%w: read %d of %d", errPageBounds, id, len(p.pages))
	}
	copy(buf[:PageSize], p.pages[id])
	return nil
}

func (p *memPager) writePage(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return errClosed
	}
	if int(id) >= len(p.pages) {
		return fmt.Errorf("%w: write %d of %d", errPageBounds, id, len(p.pages))
	}
	copy(p.pages[id], buf[:PageSize])
	return nil
}

func (p *memPager) writePages(pages []DirtyPage) error {
	for _, pg := range pages {
		if err := p.writePage(pg.ID, pg.Data); err != nil {
			return err
		}
	}
	return nil
}

func (p *memPager) Grow() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, errClosed
	}
	p.pages = append(p.pages, make([]byte, PageSize))
	return PageID(len(p.pages) - 1), nil
}

func (p *memPager) PageCount() PageID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return PageID(len(p.pages))
}

func (p *memPager) sync() error { return nil }

func (p *memPager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	return nil
}

// meta is the decoded form of page 0. The epoch counts commits: WAL
// recovery always lands on the root set and epoch of the last commit whose
// records fully reached the log, which is how a crashed store reopens on
// its last published state.
//
// free and freeHead list the pages no published state references
// (freelist.go). pageCount is the file's page count when the meta was
// written: a page grown and freed in one transaction is listed but in no
// WAL batch, so open grows the file back to pageCount after a crash lost
// that growth, and lists the pages past it, which no commit reached. A
// version-2 meta decodes with no inline ids and no pageCount (0).
// incomplete is decoded only: a version-2 or -3 page without its clean
// byte, whose list lacks the ids pending when it was written, until
// ReclaimUnreachable completes it.
type meta struct {
	freeHead   PageID
	free       []PageID
	roots      [NumRoots]PageID
	epoch      uint64
	pageCount  PageID
	incomplete bool
}

// metaCleanOff is the clean-shutdown byte of versions 2 and 3, reserved in
// version 4. The inline id count, the page count and the ids follow it.
const (
	metaCleanOff = 24 + 8*NumRoots + 8
	metaFreeNOff = metaCleanOff + 4
	metaPagesOff = metaFreeNOff + 4
	metaFreeOff  = metaPagesOff + 8
	metaFreeCap  = (PageSize - metaFreeOff) / 8
)

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
	binary.LittleEndian.PutUint32(buf[metaFreeNOff:], uint32(len(m.free)))
	binary.LittleEndian.PutUint64(buf[metaPagesOff:], uint64(m.pageCount))
	for i, id := range m.free {
		binary.LittleEndian.PutUint64(buf[metaFreeOff+8*i:], uint64(id))
	}
}

func (m *meta) decode(buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("%w: %d bytes", errBadMeta, len(buf))
	}
	if string(buf[:8]) != metaMagic {
		return fmt.Errorf("%w: bad magic", errBadMeta)
	}
	v := binary.LittleEndian.Uint32(buf[8:])
	if v < 2 || v > metaVersion {
		return fmt.Errorf("%w: version %d", errBadMeta, v)
	}
	if ps := binary.LittleEndian.Uint32(buf[12:]); ps != PageSize {
		return fmt.Errorf("%w: page size %d", errBadMeta, ps)
	}
	m.freeHead = PageID(binary.LittleEndian.Uint64(buf[16:]))
	for i := range m.roots {
		m.roots[i] = PageID(binary.LittleEndian.Uint64(buf[24+8*i:]))
	}
	m.epoch = binary.LittleEndian.Uint64(buf[24+8*NumRoots:])
	m.incomplete = v < metaVersion && buf[metaCleanOff] != 1
	m.free, m.pageCount = nil, 0
	if v == 2 {
		return nil
	}
	n := binary.LittleEndian.Uint32(buf[metaFreeNOff:])
	if n > metaFreeCap {
		return fmt.Errorf("%w: %d inline free ids, room for %d", errBadMeta, n, metaFreeCap)
	}
	m.pageCount = PageID(binary.LittleEndian.Uint64(buf[metaPagesOff:]))
	if n > 0 {
		m.free = make([]PageID, n)
		for i := range m.free {
			m.free[i] = PageID(binary.LittleEndian.Uint64(buf[metaFreeOff+8*i:]))
		}
	}
	return nil
}

// Store couples a pager, a buffer pool and (for file-backed stores) a WAL
// into the transactional page store the rest of Crimson builds on. All
// mutations happen in the buffer pool; Commit makes them durable atomically
// and publishes a new epoch.
//
// Concurrency: the store is multi-version. Mutations (writeCOW, writePage,
// allocate, retire, SetRoot, Commit, Close) serialize on the store
// mutex and must come from one writer at a time (package relstore enforces
// this with its database mutex). Reads — ReadPage — never take the store
// mutex: they take the page's immutable image from the buffer pool, whose
// own mutex no pager read holds, and may run from any number of goroutines
// concurrently with the writer. Snapshot readers are safe because a
// committed page is never modified in place: writers copy-on-write onto
// fresh pages and the superseded pages are only reused after every snapshot
// that could see them has closed (see epoch.go). Nor is any page *image*
// ever modified: rewriting a page — a fresh one by its writer, a reused id,
// a replicated apply — installs a new image, so bytes a reader already holds
// stay what they were.
type Store struct {
	mu     sync.RWMutex
	pager  pageFile
	pool   *bufferPool
	wal    *wal
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

	// nfree and spilled split the listed ids into reusable and pending
	// (freelist.go). handout is the epoch that publishes the last trunk
	// page handed out (see CatchUpSnapshot).
	nfree, spilled int
	handout        uint64

	// pubEpoch mirrors ep.current for lock-free reads (PublishedEpoch).
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
	// stamps epochs itself — every mutation arrives pre-stamped through
	// ApplyReplicated — so its page file stays byte-compatible with the
	// primary's. Promote flips it off.
	replica atomic.Bool

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

// SetReadCacheBytes does nothing: the buffer pool is the store's one page
// cache, and its frames keep the nodes decoded from their images. It stays
// because perfbench/ calls it, and goes with ROADMAP item 4.
func (s *Store) SetReadCacheBytes(int64) {}

// Open opens a file-backed store, creating it if absent, and replays any
// committed WAL records left behind by a crash. The WAL lives next to the
// page file at path+".wal".
func Open(path string) (*Store, error) { return openFile(path, defaultPoolSize) }

// openFile is Open with an explicit buffer-pool frame limit (tests shrink it
// to force evictions through the writeback read path).
func openFile(path string, poolLimit int) (*Store, error) {
	return openFileMode(path, poolLimit, false)
}

// OpenReplica opens a file-backed store as a replication follower: WAL
// recovery still runs (restart resumes on the last fully applied epoch),
// but the store never stamps epochs itself — all state advances arrive
// through ApplyReplicated. See Promote.
func OpenReplica(path string) (*Store, error) { return openFileMode(path, defaultPoolSize, true) }

func openFileMode(path string, poolLimit int, replica bool) (*Store, error) {
	wal, err := openWAL(path + ".wal")
	if err != nil {
		return nil, err
	}
	pager, err := openFilePager(path)
	if err != nil {
		wal.Close()
		return nil, err
	}
	wb := newWriteback()
	// The pool reads through the writeback table: committed images that
	// have not been checkpointed yet must win over the (stale) page file.
	s := &Store{
		pager: pager,
		pool:  newBufferPool(&writebackPager{pageFile: pager, wb: wb}, poolLimit),
		wal:   wal,
		wb:    wb,
		fresh: make(map[PageID]struct{}),
	}
	s.replica.Store(replica)
	if err := s.init(); err != nil {
		pager.Close()
		wal.Close()
		return nil, err
	}
	s.startCheckpointer()
	return s, nil
}

// OpenMem opens a store backed entirely by memory (no WAL, no durability).
func OpenMem() *Store { return OpenMemWithPoolLimit(defaultPoolSize) }

func (s *Store) init() error {
	// Recover committed pages from the WAL before reading the meta page,
	// so a crash between WAL commit and page-file write is invisible.
	if s.wal != nil {
		if err := s.wal.recoverPages(s.pager); err != nil {
			return err
		}
	}
	img := make([]byte, PageSize)
	if s.pager.PageCount() == 0 {
		id, err := s.pager.Grow()
		if err != nil {
			return err
		}
		if id != 0 {
			return fmt.Errorf("storage: fresh file grew to page %d", id)
		}
		s.meta.encode(img)
		if err := s.pager.writePage(0, img); err != nil {
			return err
		}
		if err := s.pager.sync(); err != nil {
			return err
		}
		s.ep.init(s.meta.epoch, s.meta.roots, img)
		return nil
	}
	if err := s.pager.ReadPage(0, img); err != nil {
		return err
	}
	if err := s.meta.decode(img); err != nil {
		return err
	}
	if err := s.growTo(s.meta.pageCount); err != nil {
		return err
	}
	// The inline ids must be distinct pages of the file.
	mark := freeMarker(make([]bool, s.pager.PageCount()))
	for _, id := range s.meta.free {
		if err := mark(id); err != nil {
			return err
		}
	}
	if s.meta.pageCount == 0 {
		// Version 2 (and a file never committed) records no page count.
		s.meta.pageCount = s.pager.PageCount()
		s.meta.encode(img)
	}
	s.ep.init(s.meta.epoch, s.meta.roots, img)
	s.pubEpoch.Store(s.meta.epoch)
	if s.replica.Load() {
		// A follower's list is its primary's; Promote adopts it.
		return nil
	}
	// No snapshot exists yet: every listed page is reusable. A follower's
	// snapshots may predate the restart, so the reclaim horizon starts at
	// the recovered epoch.
	s.nfree = len(s.meta.free)
	s.noteHorizon(s.meta.epoch)
	return s.listGrown()
}

// listGrown lists the pages at or past the meta page's page count, which
// only a transaction that never committed grew, as reusable.
func (s *Store) listGrown() error {
	for id := s.meta.pageCount; id < s.pager.PageCount(); id++ {
		if err := s.free(id); err != nil {
			return err
		}
	}
	return nil
}

// retire marks a page as superseded. A fresh page (allocated since the
// last commit) was never visible to anyone and is freed immediately; a
// committed page enters the epoch-reclamation pipeline and returns to the
// free list once the superseding commit has published and every snapshot
// that could reference it has closed.
func (s *Store) retire(id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	return s.retireLocked(id)
}

func (s *Store) retireLocked(id PageID) error {
	if _, ok := s.fresh[id]; ok {
		delete(s.fresh, id)
		return s.free(id)
	}
	return s.listPending(id)
}

// writable reports whether the writer may rewrite the page under its id:
// true only for pages allocated since the last commit.
func (s *Store) writable(id PageID) bool {
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
	s.meta.pageCount = s.pager.PageCount()
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
	img, _, err := s.readPage(id, nil)
	return img, err
}

// readPage is the counted read chokepoint: buffer-pool hits and misses
// (each miss is one page read) feed the global engine counters always, and
// the per-request set c when a trace is active (c nil-safe). A read that
// waited for another reader's read of the page read nothing itself: it is
// a hit, and a pool read wait. It also returns the node the pool keeps with
// the image, nil until a read has decoded one (bufferPool.keep).
func (s *Store) readPage(id PageID, c *obs.Counters) ([]byte, *node, error) {
	if s.closed.Load() {
		return nil, nil, errClosed
	}
	img, n, how, err := s.pool.page(id)
	if err != nil {
		return nil, nil, err
	}
	if how == poolJoined {
		obs.Engine.Add(obs.CtrPoolReadWaits, 1)
		c.Add(obs.CtrPoolReadWaits, 1)
	}
	if how != poolMiss {
		obs.Engine.Add(obs.CtrPoolHits, 1)
		c.Add(obs.CtrPoolHits, 1)
	} else {
		obs.Engine.Add(obs.CtrPoolMisses, 1)
		obs.Engine.Add(obs.CtrPagesRead, 1)
		c.Add(obs.CtrPoolMisses, 1)
		c.Add(obs.CtrPagesRead, 1)
	}
	return img, n, nil
}

// writePage installs img as the page's new image via the buffer pool.
// Ownership of img passes to the store: the caller must not modify it
// afterwards. Callers must own the page (fresh, or provably unreferenced by
// any published state); COW paths use writeCOW.
func (s *Store) writePage(id PageID, img []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	return s.pool.Put(id, img)
}

// writeCOW writes a page image with copy-on-write semantics: a fresh page
// keeps its id and gets the new image; a committed page is left untouched,
// the image lands on a newly allocated page, and the old page is retired.
// The returned id is where the image now lives. As with writePage,
// ownership of img passes to the store.
func (s *Store) writeCOW(id PageID, img []byte) (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return 0, errClosed
	}
	if _, ok := s.fresh[id]; ok {
		// Fresh pages keep their id.
		return id, s.pool.Put(id, img)
	}
	nid, err := s.allocateLocked()
	if err != nil {
		return 0, err
	}
	if err := s.pool.Put(nid, img); err != nil {
		return 0, err
	}
	if err := s.retireLocked(id); err != nil {
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

// OpenMemWithPoolLimit opens an in-memory store whose buffer pool holds at
// most limit frames — used by tests to force eviction pressure.
func OpenMemWithPoolLimit(limit int) *Store {
	pager := newMemPager()
	s := &Store{pager: pager, pool: newBufferPool(pager, limit), fresh: make(map[PageID]struct{})}
	if err := s.init(); err != nil {
		// The in-memory pager cannot fail on a fresh store.
		panic("storage: init mem store: " + err.Error())
	}
	return s
}

// Close commits outstanding changes, runs a final synchronous checkpoint
// and releases the underlying files. The files are released even when the
// commit or the checkpoint fails (a store whose WAL failed refuses every
// commit), and the failure is returned. Pages still pending for an open
// snapshot need nothing: the commit that retired them listed them.
func (s *Store) Close() error {
	// Stop the background checkpointer first so no flush races the final
	// synchronous pass below.
	s.stopCheckpointer()
	if s.closed.Load() {
		return nil
	}
	err := s.Commit()
	if err == nil {
		// Drain the writeback table into the page file and reset the WAL,
		// so a cleanly closed store reopens without replay work.
		err = s.Checkpoint()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return err
	}
	s.closed.Store(true)
	// Release anyone blocked on an epoch or a snapshot close: nothing will
	// move this store again.
	s.ep.mu.Lock()
	s.ep.closed = true
	s.ep.wakeLocked()
	s.ep.mu.Unlock()
	if s.wal != nil {
		err = errors.Join(err, s.wal.Close())
	}
	return errors.Join(err, s.pager.Close())
}
