// Package repl is Crimson's WAL-shipping replication subsystem: a
// per-shard Publisher on the primary streams every durable commit batch
// (the exact page images the group committer fsynced) to subscribed
// followers, and a Follower applies them through the storage engine's
// ordinary commit machinery so replicas are byte-compatible with the
// primary and crash-recover with the same WAL replay.
//
// The stream is one long chunked HTTP response. Frames are a JSON header
// line (newline-terminated) followed by an optional binary page payload:
// N entries of an 8-byte little-endian page id and the PageSize-byte page
// image. Five frame kinds flow primary→follower:
//
//	hello   — stream opening; snapshot=true announces a full-snapshot
//	          catch-up of page_total pages pinned at epoch
//	pages   — one chunk of snapshot pages (payload only; no epoch)
//	snapend — snapshot complete: the epoch and root set the pages realize
//	batch   — one durable commit batch: epoch, primary reclaim horizon,
//	          and the batch's page images (page 0, the stamped meta page,
//	          always rides along)
//	ping    — keepalive carrying the primary's current epoch, sent when
//	          the subscriber is caught up; followers derive lag and the
//	          synced signal from it
//
// Catch-up picks the cheapest source that can reach the subscriber's
// next epoch: the publisher's in-memory ring of recent batches, else a
// scan of the primary's WAL (whose reset the subscriber's retain
// floor holds back), else a full page-file snapshot.
package repl

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/storage"
)

// Frame kinds (the Kind field of a frame header).
const (
	KindHello   = "hello"
	KindPages   = "pages"
	KindSnapEnd = "snapend"
	KindBatch   = "batch"
	KindPing    = "ping"
)

// Bounds against corrupt or hostile frames. maxFramePages caps what a header
// may claim (4 GiB of pages; real commit batches are far smaller, snapshots
// ship in snapChunkPages-sized frames); the claim itself reserves nothing —
// readFrame takes memory as page images arrive, firstSlabPages at first.
// maxFrameHeader caps the JSON header line, and is the reader's buffer.
const (
	maxFramePages  = 1 << 20
	maxFrameHeader = 64 << 10
	firstSlabPages = 16
)

// Frame is one stream frame's JSON header. Which fields are meaningful
// depends on Kind; N is the number of page entries in the binary payload
// that follows the header line.
type Frame struct {
	Kind      string   `json:"kind"`
	Epoch     uint64   `json:"epoch,omitempty"`
	Horizon   uint64   `json:"horizon,omitempty"`
	Snapshot  bool     `json:"snapshot,omitempty"`
	PageTotal uint64   `json:"page_total,omitempty"`
	N         int      `json:"n,omitempty"`
	Roots     []uint64 `json:"roots,omitempty"`
}

// rootsToWire flattens a root-slot array for the JSON header.
func rootsToWire(roots [storage.NumRoots]storage.PageID) []uint64 {
	out := make([]uint64, storage.NumRoots)
	for i, r := range roots {
		out[i] = uint64(r)
	}
	return out
}

// rootsFromWire rebuilds a root-slot array from the JSON header form.
func rootsFromWire(ws []uint64) [storage.NumRoots]storage.PageID {
	var roots [storage.NumRoots]storage.PageID
	for i := 0; i < len(ws) && i < storage.NumRoots; i++ {
		roots[i] = storage.PageID(ws[i])
	}
	return roots
}

// frameWriter encodes frames onto one stream. Not safe for concurrent
// use; each subscriber stream has exactly one writing goroutine.
type frameWriter struct {
	bw *bufio.Writer
}

func newFrameWriter(w io.Writer) *frameWriter {
	return &frameWriter{bw: bufio.NewWriterSize(w, 64<<10)}
}

// writeFrame emits one frame: the JSON header line, then the page
// payload. f.N is forced to len(pages) so headers can't lie about their
// payload. The underlying writer sees the whole frame (bufio flush), but
// HTTP-level flushing is the caller's business.
func (fw *frameWriter) writeFrame(f Frame, pages []storage.DirtyPage) error {
	f.N = len(pages)
	hdr, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if _, err := fw.bw.Write(hdr); err != nil {
		return err
	}
	if err := fw.bw.WriteByte('\n'); err != nil {
		return err
	}
	var idb [8]byte
	for _, p := range pages {
		if len(p.Data) != storage.PageSize {
			return fmt.Errorf("repl: page %d image is %d bytes, want %d", p.ID, len(p.Data), storage.PageSize)
		}
		binary.LittleEndian.PutUint64(idb[:], uint64(p.ID))
		if _, err := fw.bw.Write(idb[:]); err != nil {
			return err
		}
		if _, err := fw.bw.Write(p.Data); err != nil {
			return err
		}
	}
	return fw.bw.Flush()
}

// frameReader decodes frames from one stream.
type frameReader struct {
	br *bufio.Reader
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, maxFrameHeader)}
}

// readFrame reads the next frame header and its page payload. The returned
// page images are private copies, cut from slabs that double in size as the
// payload keeps coming: a frame costs at most twice the bytes it delivered,
// whatever its header claimed.
func (fr *frameReader) readFrame() (Frame, []storage.DirtyPage, error) {
	line, err := fr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return Frame{}, nil, fmt.Errorf("repl: frame header longer than %d bytes", maxFrameHeader)
	}
	if err != nil {
		return Frame{}, nil, err
	}
	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		return Frame{}, nil, fmt.Errorf("repl: bad frame header: %w", err)
	}
	if f.N < 0 || f.N > maxFramePages {
		return Frame{}, nil, fmt.Errorf("repl: frame page count %d out of range", f.N)
	}
	if f.N == 0 {
		return f, nil, nil
	}
	pages := make([]storage.DirtyPage, 0, min(f.N, firstSlabPages))
	var slab []byte
	slabPages := firstSlabPages
	var idb [8]byte
	for i := 0; i < f.N; i++ {
		if _, err := io.ReadFull(fr.br, idb[:]); err != nil {
			return Frame{}, nil, fmt.Errorf("repl: truncated frame payload: %w", err)
		}
		if len(slab) == 0 {
			slab = make([]byte, min(f.N-i, slabPages)*storage.PageSize)
			slabPages *= 2
		}
		dst := slab[:storage.PageSize:storage.PageSize]
		slab = slab[storage.PageSize:]
		if _, err := io.ReadFull(fr.br, dst); err != nil {
			return Frame{}, nil, fmt.Errorf("repl: truncated page image: %w", err)
		}
		pages = append(pages, storage.DirtyPage{ID: storage.PageID(binary.LittleEndian.Uint64(idb[:])), Data: dst})
	}
	return f, pages, nil
}
