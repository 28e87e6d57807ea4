package treestore

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/phylo"
	"repro/internal/treegen"
)

func TestExportRoundTrip(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	orig := phylo.PaperFigure1()
	st := loadOpen(t, s, "fig1", orig, 2)
	got, err := st.ExportCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !phylo.Equal(got, orig, 1e-12) {
		t.Fatal("exported tree differs from the loaded tree")
	}
}

func TestExportLargeTree(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	orig, err := treegen.Yule(800, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	st := loadOpen(t, s, "big", orig, 16)
	got, err := st.ExportCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !phylo.Equal(got, orig, 1e-12) {
		t.Fatal("export of 800-leaf tree differs")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}
