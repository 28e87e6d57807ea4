package nexus

import (
	"strings"
	"testing"

	"repro/internal/phylo"
)

const sampleNexus = `#NEXUS
[ Crimson demo file ]
BEGIN TAXA;
	DIMENSIONS NTAX=5;
	TAXLABELS Bha Lla Spy Syn Bsu;
END;
BEGIN CHARACTERS;
	DIMENSIONS NCHAR=12;
	FORMAT DATATYPE=DNA MISSING=? GAP=-;
	MATRIX
		Bha ACGTACGTACGT
		Lla ACGTACGAACGT
		Spy ACGTACGAACGA
		Syn TCGTACGTACGT
		Bsu TCGAACGTACGT
	;
END;
BEGIN TREES;
	TREE gold = [&R] (Syn:2.5,((Lla:1,Spy:1):1.5,Bha:0.75):0.5,Bsu:1.25);
END;
`

func TestParseSample(t *testing.T) {
	doc, err := parseString(sampleNexus)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Taxa) != 5 || doc.Taxa[0] != "Bha" || doc.Taxa[4] != "Bsu" {
		t.Fatalf("Taxa = %v", doc.Taxa)
	}
	ch := doc.Characters
	if ch == nil {
		t.Fatal("no characters block")
	}
	if ch.Datatype != "DNA" || ch.Missing != "?" || ch.Gap != "-" {
		t.Fatalf("format = %q %q %q", ch.Datatype, ch.Missing, ch.Gap)
	}
	if ch.Seqs["Syn"] != "TCGTACGTACGT" {
		t.Fatalf("Syn seq = %q", ch.Seqs["Syn"])
	}
	if len(ch.Order) != 5 {
		t.Fatalf("Order = %v", ch.Order)
	}
	if len(doc.Trees) != 1 {
		t.Fatalf("Trees = %d", len(doc.Trees))
	}
	nt := doc.Trees[0]
	if nt.Name != "gold" || !nt.Rooted {
		t.Fatalf("tree name=%q rooted=%v", nt.Name, nt.Rooted)
	}
	if !phylo.Equal(nt.Tree, phylo.PaperFigure1(), 1e-12) {
		t.Fatal("gold tree differs from Figure 1")
	}
}

func TestTranslate(t *testing.T) {
	in := `#NEXUS
BEGIN TREES;
	TRANSLATE 1 Bha, 2 Lla, 3 Spy;
	TREE small = [&U] ((1:1,2:1):1,3:2);
END;
`
	doc, err := parseString(in)
	if err != nil {
		t.Fatal(err)
	}
	tr := doc.Trees[0]
	if tr.Rooted {
		t.Fatal("[&U] tree parsed as rooted")
	}
	for _, name := range []string{"Bha", "Lla", "Spy"} {
		if tr.Tree.NodeByName(name) == nil {
			t.Fatalf("translated name %s missing: %v", name, tr.Tree.LeafNames())
		}
	}
}

func TestInterleavedMatrix(t *testing.T) {
	in := `#NEXUS
BEGIN DATA;
	FORMAT DATATYPE=DNA INTERLEAVE;
	MATRIX
		A ACGT
		B TTTT
		A GGGG
		B CCCC
	;
END;
`
	doc, err := parseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Characters.Seqs["A"] != "ACGTGGGG" {
		t.Fatalf("A = %q", doc.Characters.Seqs["A"])
	}
	if doc.Characters.Seqs["B"] != "TTTTCCCC" {
		t.Fatalf("B = %q", doc.Characters.Seqs["B"])
	}
	if len(doc.Characters.Order) != 2 {
		t.Fatalf("Order = %v", doc.Characters.Order)
	}
}

func TestUnknownBlocksSkipped(t *testing.T) {
	in := `#NEXUS
BEGIN ASSUMPTIONS;
	USERTYPE myMatrix = 4;
	WHATEVER x = y;
END;
BEGIN TAXA;
	TAXLABELS A B;
END;
`
	doc, err := parseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Taxa) != 2 {
		t.Fatalf("Taxa = %v", doc.Taxa)
	}
}

func TestQuotedTaxaAndComments(t *testing.T) {
	in := `#NEXUS
BEGIN TAXA;
	TAXLABELS 'Homo sapiens' [inline comment] 'It''s here';
END;
`
	doc, err := parseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Taxa) != 2 || doc.Taxa[0] != "Homo sapiens" || doc.Taxa[1] != "It's here" {
		t.Fatalf("Taxa = %v", doc.Taxa)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	doc, err := parseString(sampleNexus)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, doc); err != nil {
		t.Fatal(err)
	}
	doc2, err := parseString(sb.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if len(doc2.Taxa) != 5 {
		t.Fatalf("taxa lost: %v", doc2.Taxa)
	}
	if doc2.Characters.Seqs["Bsu"] != doc.Characters.Seqs["Bsu"] {
		t.Fatal("sequences lost")
	}
	if !phylo.Equal(doc2.Trees[0].Tree, doc.Trees[0].Tree, 1e-12) {
		t.Fatal("tree changed in round trip")
	}
	if doc2.Trees[0].Rooted != doc.Trees[0].Rooted {
		t.Fatal("rootedness lost")
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"not nexus at all",
		"#NEXUS\nBEGIN TREES;\nTREE x = (A:1,B;...", // broken newick + unterminated
		"#NEXUS\nBEGIN TAXA;\nTAXLABELS 'unterminated;\nEND;",
	}
	for _, in := range bad {
		if _, err := parseString(in); err == nil {
			t.Errorf("parseString(%q) succeeded", in)
		}
	}
}

func TestTreeWithQuotedSemicolonLabel(t *testing.T) {
	in := "#NEXUS\nBEGIN TREES;\nTREE q = ('a;b':1,c:2);\nEND;\n"
	doc, err := parseString(in)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Trees[0].Tree.NodeByName("a;b") == nil {
		t.Fatalf("quoted semicolon label lost: %v", doc.Trees[0].Tree.LeafNames())
	}
}
