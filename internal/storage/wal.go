package storage

import (
	"encoding/binary"
	"errors"
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

	// walPageFrame is the size of one page frame: header, image, CRC.
	walPageFrame = 16 + PageSize + 4

	// walBufSize is how many encoded bytes appendGroup gathers before it
	// writes them out: a group larger than this takes several writes (and
	// still one fsync), through a buffer that never holds more than this
	// plus one frame.
	walBufSize = 1 << 20
)

// walFile is what the log needs of its file. Tests put one in front of the
// *os.File that fails a chosen write or sync.
type walFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// wal is a physical redo log. Each Commit of the Store appends the full
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
type wal struct {
	mu   sync.Mutex
	f    walFile
	gen  uint64       // generation of the frames being appended
	base int64        // offset of the first frame: walHeaderSize, or 0 without a header
	size atomic.Int64 // bytes of this generation's frames; written under mu
	buf  []byte       // encode buffer: walBufSize plus one frame, allocated at the first append

	// err is the first write or sync failure. It is sticky: the failed
	// group's bytes may lie at the tail, half written or written but not
	// synced, and its epoch's images were never marked durable, so no later
	// group may land on top of it. Every append and reset returns it until
	// the store is reopened and recovery decides what the tail holds.
	err error
}

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
func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	w := &wal{f: f}
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

// appendWALPage encodes the page frame of p with its CRC seeded by seed
// onto buf.
func appendWALPage(buf []byte, seed uint32, p DirtyPage) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, walFramePage)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.ID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Data)))
	buf = append(buf, p.Data...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Update(seed, crc32.IEEETable, buf[start:]))
}

// appendWALCommit encodes the commit frame closing a batch of count pages.
func appendWALCommit(buf []byte, seed uint32, count int) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, walFrameCommit)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	return binary.LittleEndian.AppendUint32(buf, crc32.Update(seed, crc32.IEEETable, buf[start:]))
}

// appendGroup encodes every batch back to back at the log's tail, writing
// the encoded frames out each time walBufSize of them have gathered (a
// group under that size takes one write), and syncs once. This is the
// group-commit fast path: a flush of N coalesced commits costs one fsync
// instead of N. A crash between two of the writes leaves a tail without the
// group's commit frames, which recovery discards like any torn write. A
// non-nil onDurable hook runs after the fsync and before the new size is
// published, so whatever it records is ordered before any Size() sample
// that counts these bytes — the checkpointer relies on this to never reset
// past a batch it has not written back.
//
// The first failed write or sync fails this append and every later one,
// and every later resetIf (see wal.err).
func (w *wal) appendGroup(batches [][]DirtyPage, onDurable func()) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errClosed
	}
	if w.err != nil {
		return w.err
	}
	if w.buf == nil {
		w.buf = make([]byte, 0, walBufSize+walPageFrame)
	}
	seed, size := walSeed(w.gen), w.size.Load()
	end := size
	buf := w.buf[:0]
	// write writes buf out once it holds at least n bytes. Called after
	// every frame with n = walBufSize, it keeps buf under walBufSize
	// before each append, so no append outgrows the buffer.
	write := func(n int) error {
		if len(buf) < n {
			return nil
		}
		if _, err := w.f.WriteAt(buf, w.base+end); err != nil {
			w.err = fmt.Errorf("storage: wal append: %w", err)
			return w.err
		}
		end += int64(len(buf))
		buf = buf[:0]
		return nil
	}
	for _, pages := range batches {
		for _, p := range pages {
			buf = appendWALPage(buf, seed, p)
			if err := write(walBufSize); err != nil {
				return err
			}
		}
		buf = appendWALCommit(buf, seed, len(pages))
		if err := write(walBufSize); err != nil {
			return err
		}
	}
	if err := write(1); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("storage: wal sync: %w", err)
		return w.err
	}
	if onDurable != nil {
		onDurable()
	}
	w.size.Store(end)
	obs.Engine.Add(obs.CtrWALBytes, end-size)
	obs.Engine.Add(obs.CtrWALSyncs, 1)
	obs.Engine.Max(obs.CtrWALHighwaterBytes, end)
	return nil
}

// Size reports the bytes appended since the last reset (the file itself
// keeps its blocks, and is at least this long). It takes no lock.
func (w *wal) Size() int64 { return w.size.Load() }

// resetIf starts a new generation of the log once the page file holds
// every batch in it, and reports whether it did. sampled is the Size()
// the caller read before writing back. If commits have landed since,
// catchUp must write their now-durable images back first; it runs under
// the WAL mutex, so nothing lands meanwhile. A nil catchUp refuses
// instead. A handle whose generation is no longer the one in the file's
// header — another handle has reopened the path — never touches it.
func (w *wal) resetIf(sampled int64, catchUp func() error) (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return false, errClosed
	}
	if w.err != nil {
		return false, w.err
	}
	size := w.size.Load()
	if size == 0 || (size != sampled && catchUp == nil) {
		return false, nil
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

// recoverPages replays committed batches onto the pager and resets the log. It
// is called before the Store reads its meta page, and before the log is
// shared. A log without a header is freed once here; from then on it is
// reset in place. A log that is only a header — what Close leaves — holds
// no frame of any generation and is left as it is.
func (w *wal) recoverPages(pager pageFile) error {
	if w.f == nil {
		return errClosed
	}
	var probe [1]byte
	if n, _ := w.f.ReadAt(probe[:], walHeaderSize); n == 0 && w.base == walHeaderSize {
		return nil
	}
	replayed := false
	_, err := scanWAL(w.f, walSeed(w.gen), w.base, w.base+w.size.Load(), func(pages []DirtyPage) error {
		for _, p := range pages {
			for pager.PageCount() <= p.ID {
				if _, err := pager.Grow(); err != nil {
					return err
				}
			}
			if err := pager.writePage(p.ID, p.Data); err != nil {
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
		if err := pager.sync(); err != nil {
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
// in recoverPages, have the log to themselves).
func (w *wal) resetLocked() error {
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
	return nil
}

// Close closes the log file, cut back to its header when it holds nothing
// to replay, so the next open has nothing to reset.
func (w *wal) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if w.err == nil && w.base == walHeaderSize && w.size.Load() == 0 {
		err = w.f.Truncate(walHeaderSize)
	}
	err = errors.Join(err, w.f.Close())
	w.f = nil
	return err
}
