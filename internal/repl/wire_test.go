package repl

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/storage"
)

// allocatedBy reports the heap bytes fn's goroutine (and whatever else ran
// meanwhile) allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// testPages makes n page images with distinct ids and contents.
func testPages(n int) []storage.DirtyPage {
	pages := make([]storage.DirtyPage, n)
	for i := range pages {
		pages[i] = storage.DirtyPage{ID: storage.PageID(7 * i), Data: bytes.Repeat([]byte{byte(i + 1)}, storage.PageSize)}
	}
	return pages
}

func encodeFrame(t testing.TB, f Frame, pages []storage.DirtyPage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := newFrameWriter(&buf).writeFrame(f, pages); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadFrameTakesMemoryAsPagesArrive: what a header claims reserves
// nothing. The 30-byte frame that used to make a follower allocate 4 GiB
// fails as truncated within a few kilobytes, with or without a few page
// images behind it; a header line with no end is refused at the bound; and a
// frame of many pages, its slabs doubling, still reads back exactly.
func TestReadFrameTakesMemoryAsPagesArrive(t *testing.T) {
	hostile := []byte(`{"kind":"batch","n":1048576}` + "\n")
	payload := encodeFrame(t, Frame{Kind: KindBatch}, testPages(3))
	payload = payload[bytes.IndexByte(payload, '\n')+1:]
	for name, input := range map[string][]byte{
		"header alone":         hostile,
		"header and 3 entries": append(bytes.Clone(hostile), payload...),
	} {
		var err error
		got := allocatedBy(func() { _, _, err = newFrameReader(bytes.NewReader(input)).readFrame() })
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("%s: err = %v, want a truncated-frame error", name, err)
		}
		// The reader's own buffer, a first slab, the error; not the claim.
		if limit := uint64(maxFrameHeader + 2*firstSlabPages*storage.PageSize + 64<<10); got > limit {
			t.Fatalf("%s: %d bytes supplied, %d allocated, want at most %d", name, len(input), got, limit)
		}
	}

	endless := bytes.Repeat([]byte("x"), 2*maxFrameHeader)
	if _, _, err := newFrameReader(bytes.NewReader(endless)).readFrame(); err == nil || !strings.Contains(err.Error(), "header longer than") {
		t.Fatalf("header line without end: err = %v, want the length bound", err)
	}
	if _, _, err := newFrameReader(strings.NewReader(`{"kind":"batch","n":1048577}` + "\n")).readFrame(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("page count past the cap: err = %v, want out of range", err)
	}

	want := testPages(5*firstSlabPages + 3) // slabs of 16, 32 and the 35 left
	f, got, err := newFrameReader(bytes.NewReader(encodeFrame(t, Frame{Kind: KindPages}, want))).readFrame()
	if err != nil || f.N != len(want) || len(got) != len(want) {
		t.Fatalf("frame of %d pages: n=%d, %d pages, %v", len(want), f.N, len(got), err)
	}
	for i := range want {
		if got[i].ID != want[i].ID || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("page %d of %d corrupted across a slab boundary", i, len(want))
		}
	}
}

// FuzzReadFrame: readFrame on arbitrary bytes returns an error or a frame
// that writeFrame and readFrame carry round exactly; it never panics, and it
// never allocates out of proportion to the bytes it was given.
func FuzzReadFrame(f *testing.F) {
	var roots [storage.NumRoots]storage.PageID
	roots[0] = 42
	f.Add(encodeFrame(f, Frame{Kind: KindHello, Epoch: 7, Snapshot: true, PageTotal: 123}, nil))
	f.Add(encodeFrame(f, Frame{Kind: KindSnapEnd, Epoch: 7, Roots: rootsToWire(roots)}, nil))
	f.Add(encodeFrame(f, Frame{Kind: KindBatch, Epoch: 8, Horizon: 3}, testPages(2)))
	f.Add([]byte(`{"kind":"batch","n":1048576}` + "\n"))
	f.Add([]byte(`{"kind":"pages","n":-1}` + "\n"))
	f.Add([]byte(`{"kind":"ping","roots":[]}` + "\n"))
	f.Add(bytes.Repeat([]byte("x"), maxFrameHeader+1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			fr    Frame
			pages []storage.DirtyPage
			err   error
		)
		got := allocatedBy(func() { fr, pages, err = newFrameReader(bytes.NewReader(data)).readFrame() })
		// Twice the payload (doubling slabs), the reader's buffer, a first
		// slab, and slack for the JSON decoder and the fuzz worker's own
		// goroutines.
		if limit := uint64(2*len(data) + maxFrameHeader + firstSlabPages*storage.PageSize + 1<<20); got > limit {
			t.Fatalf("%d bytes supplied, %d allocated, want at most %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if fr.N != len(pages) {
			t.Fatalf("header says %d pages, %d returned", fr.N, len(pages))
		}
		again, pagesAgain, err := newFrameReader(bytes.NewReader(encodeFrame(t, fr, pages))).readFrame()
		if err != nil {
			t.Fatalf("re-reading the re-encoded frame: %v", err)
		}
		a, _ := json.Marshal(fr)
		b, _ := json.Marshal(again)
		if !bytes.Equal(a, b) || len(pagesAgain) != len(pages) {
			t.Fatalf("header %s came back as %s (%d pages as %d)", a, b, len(pages), len(pagesAgain))
		}
		for i := range pages {
			if pagesAgain[i].ID != pages[i].ID || !bytes.Equal(pagesAgain[i].Data, pages[i].Data) {
				t.Fatalf("page %d changed in the round trip", i)
			}
		}
	})
}
