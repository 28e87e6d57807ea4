package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// WAL frame kinds, and the magic of the log header.
const (
	walFramePage   = 0x50414745 // "PAGE"
	walFrameCommit = 0x434f4d54 // "COMT"
	walMagic       = 0x4357414c // "CWAL"

	walHeaderSize = 16
)

// WAL is a physical redo log. Each Commit of the Store appends the full
// images of the dirty pages followed by a commit frame, then syncs. Only
// batches terminated by a valid commit frame are replayed during recovery;
// a torn tail (crash mid-append) is discarded. Once the page file holds
// every batch, the log is reset: it starts a new generation in place,
// keeping the file's blocks, so a reset costs one 16-byte header write and
// an fsync rather than freeing and reallocating the log.
//
// Layout (little endian):
//
//	header:       u32 "CWAL" | u64 generation | u32 crc     (at offset 0)
//	page frame:   u32 kind | u64 pageID | u32 len | data | u32 crc
//	commit frame: u32 kind | u32 count  | u32 crc
//
// A frame's CRC covers everything in the frame before it, seeded with the
// generation (walSeed), so frames an older generation left beyond the new
// tail never verify: recovery stops at the first one. A log without a valid
// header (the format before generations) is generation 0: frames from
// offset 0, unsalted CRCs. Recovery replays it, then frees it once and
// writes the header.
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	gen     uint64       // generation of the frames being appended
	base    int64        // offset of the first frame: walHeaderSize, or 0 without a header
	size    atomic.Int64 // bytes of this generation's frames; written under mu
	scratch []byte       // grow-only encode buffer reused across commits

	// first/last are the epochs of the oldest and newest batches currently
	// in the log (zero when empty or unknown). retain is the replication
	// retain floor: while non-zero, a reset is refused as long as the log
	// still holds any batch with epoch >= retain, so a connected follower
	// that has not consumed those batches can always catch up from the log
	// instead of falling back to a full snapshot. retainCap bounds how many
	// bytes the floor may pin: once the log outgrows it, the reset proceeds
	// despite the floor and the laggard falls back to a snapshot catch-up —
	// a hung subscriber must not grow the primary's WAL without bound.
	first, last uint64
	retain      uint64
	retainCap   int64
}

// DefaultRetainCapBytes is the default bound on how much WAL a replication
// retain floor may pin before a reset proceeds anyway.
const DefaultRetainCapBytes = 64 << 20

// walSeed is the CRC seed of a generation's frames; generation 0 is the
// unsalted format before generations.
func walSeed(gen uint64) uint32 { return uint32(gen) ^ uint32(gen>>32) }

// appendWALHeader encodes the header of generation gen onto buf.
func appendWALHeader(buf []byte, gen uint64) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, walMagic)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// readWALHeader reports the generation in the log's header; ok is false
// when the file has no valid header.
func readWALHeader(r io.ReaderAt) (gen uint64, ok bool) {
	var h [walHeaderSize]byte
	if _, err := r.ReadAt(h[:], 0); err != nil ||
		binary.LittleEndian.Uint32(h[0:]) != walMagic ||
		crc32.ChecksumIEEE(h[:12]) != binary.LittleEndian.Uint32(h[12:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(h[4:]), true
}

// openWAL opens the log and finds the end of its committed content, where
// the next batch is appended.
func openWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	w := &WAL{f: f, retainCap: DefaultRetainCapBytes}
	if gen, ok := readWALHeader(f); ok {
		w.gen, w.base = gen, walHeaderSize
	}
	st, err := f.Stat()
	var end int64
	if err == nil {
		end, err = scanWAL(f, walSeed(w.gen), w.base, st.Size(), nil)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	w.size.Store(end - w.base)
	return w, nil
}

// scanWAL reads the frames salted with seed from off up to limit and hands
// fn (when non-nil) every batch a commit frame closes, oldest first. The
// first frame that is short, of an unknown kind or fails its CRC ends the
// log. It returns the offset just past the last commit frame; the error is
// an I/O error or fn's. The page images passed to fn are freshly allocated
// and may be retained, and no page is allocated before the bytes it is read
// from are known to lie within limit.
func scanWAL(r io.ReaderAt, seed uint32, off, limit int64, fn func(pages []DirtyPage) error) (int64, error) {
	hdr := make([]byte, 16)
	read := func(p []byte, at int64) (bool, error) {
		if at+int64(len(p)) > limit {
			return false, nil
		}
		if n, err := r.ReadAt(p, at); n < len(p) {
			if err == io.EOF {
				err = nil
			}
			return false, err
		}
		return true, nil
	}
	var pending []DirtyPage
	for pos := off; ; {
		if ok, err := read(hdr[:12], pos); !ok {
			return off, err
		}
		switch binary.LittleEndian.Uint32(hdr) {
		case walFrameCommit:
			if crc32.Update(seed, crc32.IEEETable, hdr[:8]) != binary.LittleEndian.Uint32(hdr[8:]) {
				return off, nil
			}
			pos += 12
			if len(pending) > 0 && fn != nil {
				if err := fn(pending); err != nil {
					return off, err
				}
			}
			pending, off = nil, pos
		case walFramePage:
			if ok, err := read(hdr[12:16], pos+12); !ok || binary.LittleEndian.Uint32(hdr[12:]) != PageSize {
				return off, err
			}
			if pos+16+PageSize+4 > limit {
				return off, nil
			}
			id := PageID(binary.LittleEndian.Uint64(hdr[4:]))
			crc := crc32.Update(seed, crc32.IEEETable, hdr[:16])
			data := make([]byte, PageSize)
			if ok, err := read(data, pos+16); !ok {
				return off, err
			}
			if ok, err := read(hdr[:4], pos+16+PageSize); !ok {
				return off, err
			}
			if crc32.Update(crc, crc32.IEEETable, data) != binary.LittleEndian.Uint32(hdr) {
				return off, nil
			}
			pending = append(pending, DirtyPage{ID: id, Data: data})
			pos += 16 + PageSize + 4
		default:
			return off, nil
		}
	}
}

// appendWALBatch encodes one commit batch (page frames terminated by a
// commit frame) with CRCs seeded by seed onto buf and returns the extended
// slice.
func appendWALBatch(buf []byte, seed uint32, pages []DirtyPage) []byte {
	var scratch [16]byte
	for _, p := range pages {
		binary.LittleEndian.PutUint32(scratch[0:], walFramePage)
		binary.LittleEndian.PutUint64(scratch[4:], uint64(p.ID))
		binary.LittleEndian.PutUint32(scratch[12:], uint32(len(p.Data)))
		frameStart := len(buf)
		buf = append(buf, scratch[:16]...)
		buf = append(buf, p.Data...)
		crc := crc32.Update(seed, crc32.IEEETable, buf[frameStart:])
		binary.LittleEndian.PutUint32(scratch[0:], crc)
		buf = append(buf, scratch[:4]...)
	}
	frameStart := len(buf)
	binary.LittleEndian.PutUint32(scratch[0:], walFrameCommit)
	binary.LittleEndian.PutUint32(scratch[4:], uint32(len(pages)))
	buf = append(buf, scratch[:8]...)
	crc := crc32.Update(seed, crc32.IEEETable, buf[frameStart:])
	binary.LittleEndian.PutUint32(scratch[0:], crc)
	return append(buf, scratch[:4]...)
}

// AppendGroup encodes every batch back to back, writes them at the log's
// tail with a single write, and syncs once. This is the group-commit fast
// path: a flush of N coalesced commits costs one fsync instead of N.
// firstEpoch/lastEpoch are the epochs of the oldest and newest batches in
// the group (zero when unknown); they maintain the log's content-epoch
// range for the replication retain floor. A non-nil onDurable hook runs
// after the fsync and before the new size is published, so whatever it
// records is ordered before any Size() sample that counts these bytes — the
// checkpointer relies on this to never reset past a batch it has not
// written back.
func (w *WAL) AppendGroup(batches [][]DirtyPage, firstEpoch, lastEpoch uint64, onDurable func()) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return ErrClosed
	}
	buf := w.scratch[:0]
	for _, pages := range batches {
		buf = appendWALBatch(buf, walSeed(w.gen), pages)
	}
	w.scratch = buf
	size := w.size.Load()
	if _, err := w.f.WriteAt(buf, w.base+size); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.first == 0 && firstEpoch > 0 {
		w.first = firstEpoch
	}
	if lastEpoch > w.last {
		w.last = lastEpoch
	}
	if onDurable != nil {
		onDurable()
	}
	size += int64(len(buf))
	w.size.Store(size)
	obs.Engine.Add(obs.CtrWALBytes, int64(len(buf)))
	obs.Engine.Add(obs.CtrWALSyncs, 1)
	obs.Engine.Max(obs.CtrWALHighwaterBytes, size)
	return nil
}

// LogCommit appends the dirty page images and a commit frame, then syncs.
// The batch's epoch is recovered from the stamped meta page riding in it
// (when present), so the log's content-epoch range stays accurate for this
// append path too.
func (w *WAL) LogCommit(pages []DirtyPage) error {
	var first, last uint64
	if ep, _, ok := BatchMeta(pages); ok {
		first, last = ep, ep
	}
	return w.AppendGroup([][]DirtyPage{pages}, first, last, nil)
}

// RetainFrom sets the replication retain floor: while epoch is non-zero,
// ResetIf refuses to discard the log as long as it still holds a batch
// with epoch >= the floor. A floor of zero (replication off, or every
// follower caught up past the log's content) restores normal resets.
func (w *WAL) RetainFrom(epoch uint64) {
	w.mu.Lock()
	w.retain = epoch
	w.mu.Unlock()
}

// RetainFloor reports the current retain floor (zero when unset).
func (w *WAL) RetainFloor() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.retain
}

// SetRetainCap bounds the bytes a retain floor may pin; non-positive means
// unlimited (the floor always wins).
func (w *WAL) SetRetainCap(bytes int64) {
	w.mu.Lock()
	w.retainCap = bytes
	w.mu.Unlock()
}

// ContentEpochs reports the epoch range [first, last] of the batches
// currently in the log (zeros when the log is empty or the range is
// unknown, e.g. batches appended without epoch information).
func (w *WAL) ContentEpochs() (first, last uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.first, w.last
}

// ScanCommitted replays every fully committed batch currently in the log
// through fn, oldest first, without disturbing the append position. The
// page images passed to fn are freshly allocated and may be retained.
//
// Callers that need the scanned range to stay stable (the replication
// catch-up path) must hold a retain floor covering it, otherwise a
// concurrent checkpoint may reset the log mid-scan; the next generation's
// frames then fail the scanned generation's CRCs, so a reset surfaces as a
// clean end of scan, not corruption.
func (w *WAL) ScanCommitted(fn func(pages []DirtyPage) error) error {
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return ErrClosed
	}
	f, seed, base, size := w.f, walSeed(w.gen), w.base, w.size.Load()
	w.mu.Unlock()
	_, err := scanWAL(f, seed, base, base+size, fn)
	return err
}

// Size reports the bytes appended since the last reset (the file itself
// keeps its blocks, and is at least this long). It takes no lock.
func (w *WAL) Size() int64 { return w.size.Load() }

// ResetIf starts a new generation of the log once the page file holds
// every batch in it, and reports whether it did. sampled is the Size()
// the caller read before writing back. If commits have landed since,
// catchUp must write their now-durable images back first; it runs under
// the WAL mutex, so nothing lands meanwhile. A nil catchUp refuses
// instead. A replication retain floor covering the log's content keeps it
// whole (up to the retain cap), and a handle whose generation is no longer
// the one in the file's header — another handle has reopened the path —
// never touches it.
func (w *WAL) ResetIf(sampled int64, catchUp func() error) (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return false, ErrClosed
	}
	size := w.size.Load()
	if size == 0 || (size != sampled && catchUp == nil) {
		return false, nil
	}
	if w.retain != 0 && w.last >= w.retain {
		if w.retainCap <= 0 || size <= w.retainCap {
			// A follower still needs batches in this log: keep it whole. The
			// images are already checkpointed, so recovery replaying them
			// again is idempotent.
			return false, nil
		}
		// The floor has pinned more than the cap: reset anyway. The lagging
		// subscriber's next catch-up finds the log range gone and falls back
		// to a full snapshot; a scan already in flight sees a clean end of
		// scan.
		obs.Engine.Add(obs.CtrWALRetainDrops, 1)
	}
	if gen, _ := readWALHeader(w.f); gen != w.gen {
		return false, nil
	}
	if size != sampled {
		if err := catchUp(); err != nil {
			return false, err
		}
	}
	if err := w.resetLocked(); err != nil {
		return false, err
	}
	return true, nil
}

// Recover replays committed batches onto the pager and resets the log. It
// is called before the Store reads its meta page, and before the log is
// shared. A log without a header is freed once here; from then on it is
// reset in place.
func (w *WAL) Recover(pager Pager) error {
	if w.f == nil {
		return ErrClosed
	}
	replayed := false
	_, err := scanWAL(w.f, walSeed(w.gen), w.base, w.base+w.size.Load(), func(pages []DirtyPage) error {
		for _, p := range pages {
			for pager.PageCount() <= p.ID {
				if _, err := pager.Grow(); err != nil {
					return err
				}
			}
			if err := pager.WritePage(p.ID, p.Data); err != nil {
				return err
			}
		}
		replayed = true
		return nil
	})
	if err != nil {
		return err
	}
	if replayed {
		if err := pager.Sync(); err != nil {
			return err
		}
	}
	if w.base == 0 {
		if err := w.f.Truncate(0); err != nil {
			return err
		}
	}
	return w.resetLocked()
}

// resetLocked starts the next generation: the header is rewritten and
// synced, and appends start over right after it. Callers hold w.mu (or,
// in Recover, have the log to themselves).
func (w *WAL) resetLocked() error {
	gen := w.gen + 1
	var h [walHeaderSize]byte
	if _, err := w.f.WriteAt(appendWALHeader(h[:0], gen), 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.gen, w.base = gen, walHeaderSize
	w.size.Store(0)
	w.first, w.last = 0, 0
	return nil
}

// Close closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
