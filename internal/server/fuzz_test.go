package server

import (
	"net/http"
	"testing"
)

// FuzzDecodeCursor feeds arbitrary tokens to the pagination cursor decoder,
// which takes them straight from a query string: a token is refused with a
// 400, or it is exactly what encodeCursor makes of the position it decodes
// to — so two different tokens never resume the same listing, and a cursor of
// one endpoint never resumes another's.
func FuzzDecodeCursor(f *testing.F) {
	f.Add(encodeCursor(treeCursorKind, "gold7"))
	f.Add(encodeCursor(historyCursorKind, "1234"))
	f.Add(encodeCursor(treeCursorKind, ""))
	f.Add("dDE6Z29sZDc\n")  // a line break the base64 decoder skips
	f.Add("dDE6Z29sZDd")    // loose trailing bits
	f.Add("dDE6Z29sZDc=")   // padding on an unpadded alphabet
	f.Add("not/base64url+") // the other alphabet
	f.Add("")
	f.Fuzz(func(t *testing.T, cursor string) {
		for _, kind := range []string{treeCursorKind, historyCursorKind} {
			pos, err := decodeCursor(kind, cursor)
			switch {
			case err != nil:
				if errStatus(err) != http.StatusBadRequest {
					t.Fatalf("decodeCursor(%s, %q): %v is not a 400", kind, cursor, err)
				}
			case cursor == "":
				if pos != "" {
					t.Fatalf("no cursor resumes at %q", pos)
				}
			case encodeCursor(kind, pos) != cursor:
				t.Fatalf("decodeCursor(%s, %q) = %q, which encodes to %q", kind, cursor, pos, encodeCursor(kind, pos))
			}
		}
	})
}
