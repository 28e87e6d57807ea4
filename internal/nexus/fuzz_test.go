package nexus

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/newick"
)

// FuzzNexusParse holds the decoder to one contract: a document is an error,
// or Write then Parse gives the same document back — never a panic, and
// never a written form that no longer parses or parses to something else
// (ragged matrix rows written under one NCHAR, a bare ',' taken for a
// sequence).
func FuzzNexusParse(f *testing.F) {
	for _, seed := range []string{
		sampleNexus,
		"#NEXUS\nBEGIN TREES;\n\tTRANSLATE 1 Bha, 2 Lla, 3 Spy;\n\tTREE small = [&U] ((1:1,2:1):1,3:2);\nEND;\n",
		"#NEXUS\nBEGIN DATA;\n\tFORMAT DATATYPE=DNA INTERLEAVE;\n\tMATRIX\n\t\tA ACGT\n\t\tB TTTT\n\t\tA GGGG\n\t\tB CCCC\n\t;\nEND;\n",
		"#NEXUS\nBEGIN TAXA;\n\tTAXLABELS 'Homo sapiens' [inline comment] 'It''s here';\nEND;\n",
		"#NEXUS\nBEGIN TREES;\nTREE q = ('a;b':1,c:2);\nEND;\n",
		"#NEXUS\nBEGIN ASSUMPTIONS;\n\tUSERTYPE myMatrix = 4;\nEND;\nBEGIN TAXA;\n\tTAXLABELS A B;\nEND;\n",
		"#NEXUS\nBEGIN DATA;\n\tMATRIX\n\t\tA ACGT\n\t\tB AC\n\t;\nEND;\n",
		"#NEXUS\nBEGIN DATA;\n\tMATRIX\n\t\tA ,\n\t;\nEND;\n",
		"#NEXUS\nBEGIN DATA;\n\tFORMAT MISSING='a b' GAP=';';\n\tMATRIX\n\t\t'x y' 'AC GT'\n\t;\nEND;\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		doc, err := ParseString(in)
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := Write(&sb, doc); err != nil {
			t.Fatalf("Write: %v", err)
		}
		again, err := ParseString(sb.String())
		if err != nil {
			t.Fatalf("the written form does not parse: %v\n%s", err, sb.String())
		}
		if why := differ(doc, again); why != "" {
			t.Fatalf("the written form parses to another document: %s\n%s", why, sb.String())
		}
	})
}

// differ says how two documents differ in what Write carries, or "" when
// they do not. A characters block without rows is not written, and one
// without a datatype is written as DNA.
func differ(a, b *Document) string {
	if !slices.Equal(a.Taxa, b.Taxa) {
		return "taxa"
	}
	ca, cb := written(a.Characters), written(b.Characters)
	switch {
	case (ca == nil) != (cb == nil):
		return "characters block"
	case ca != nil && (ca.Datatype != cb.Datatype || ca.Missing != cb.Missing || ca.Gap != cb.Gap):
		return "format"
	case ca != nil && (!slices.Equal(ca.Order, cb.Order) || !maps.Equal(ca.Seqs, cb.Seqs)):
		return "matrix"
	case len(a.Trees) != len(b.Trees):
		return "tree count"
	}
	for i, ta := range a.Trees {
		tb := b.Trees[i]
		if ta.Name != tb.Name || ta.Rooted != tb.Rooted || newick.String(ta.Tree) != newick.String(tb.Tree) {
			return "tree " + ta.Name
		}
	}
	return ""
}

func written(ch *Characters) *Characters {
	if ch == nil || len(ch.Order) == 0 {
		return nil
	}
	out := *ch
	if out.Datatype == "" {
		out.Datatype = "DNA"
	}
	return &out
}

// TestMatrixRowsAreWords: a matrix whose rows differ in length, or whose row
// is a bare punctuation mark, is a format error — Write would give the one a
// single NCHAR and the other back as punctuation.
func TestMatrixRowsAreWords(t *testing.T) {
	for _, in := range []string{
		"#NEXUS\nBEGIN DATA;\n\tMATRIX\n\t\tA ACGT\n\t\tB AC\n\t;\nEND;\n",
		"#NEXUS\nBEGIN DATA;\n\tMATRIX\n\t\tA ACGT\n\t\tB ACGT\n\t\tA GG\n\t;\nEND;\n",
		"#NEXUS\nBEGIN DATA;\n\tMATRIX\n\t\tA ,\n\t;\nEND;\n",
		"#NEXUS\nBEGIN DATA;\n\tMATRIX\n\t\tA =\n\t;\nEND;\n",
	} {
		if _, err := ParseString(in); !errors.Is(err, ErrFormat) {
			t.Errorf("ParseString(%q) = %v, want ErrFormat", in, err)
		}
	}
}
