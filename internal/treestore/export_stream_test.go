package treestore

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/newick"
	"repro/internal/phylo"
	"repro/internal/treegen"
)

// streamedNewick runs the streaming export into a string.
func streamedNewick(t *testing.T, st *Tree) string {
	t.Helper()
	var sb strings.Builder
	if err := st.ExportNewickTo(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestExportNewickStreamMatchesString pins the streaming export to the
// materializing path byte for byte, over trees of very different shapes.
func TestExportNewickStreamMatchesString(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cases := map[string]*phylo.Tree{"fig1": phylo.PaperFigure1()}
	if yule, err := treegen.Yule(700, 1, r); err == nil {
		cases["yule"] = yule
	} else {
		t.Fatal(err)
	}
	if cat, err := treegen.Caterpillar(300, r); err == nil {
		cases["caterpillar"] = cat
	} else {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	for name, orig := range cases {
		st := loadOpen(t, s, name, orig, 3)
		full, err := st.ExportCtx(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := newick.String(full)
		if got := streamedNewick(t, st); got != want {
			t.Fatalf("%s: streamed export differs from newick.String\n got: %.120s...\nwant: %.120s...", name, got, want)
		}
	}
}

func TestExportNewickStreamSingleLeaf(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	one := phylo.New(&phylo.Node{Name: "only"})
	one.Reindex()
	st := loadOpen(t, s, "one", one, 2)
	if got := streamedNewick(t, st); got != "only;" {
		t.Fatalf("single-leaf stream = %q, want %q", got, "only;")
	}
}

func TestExportNewickStreamCancel(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	big, err := treegen.Yule(3000, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	st := loadOpen(t, s, "big", big, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := st.ExportNewickTo(ctx, io.Discard); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled export err = %v, want context.Canceled", err)
	}
	if _, err := st.ExportCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ExportCtx err = %v, want context.Canceled", err)
	}
	if _, err := st.ProjectNamesCtx(ctx, []string{"s1", "s2"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ProjectNamesCtx err = %v, want context.Canceled", err)
	}
}

// benchExportTree loads one large tree for the export benchmarks; the
// before/after pair shows the streaming path's peak allocation is bounded
// by the emit chunk, not the tree's Newick size.
func benchExportTree(b *testing.B, leaves int) *Tree {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	gold, err := treegen.Yule(leaves, 1, r)
	if err != nil {
		b.Fatal(err)
	}
	s := OpenMem()
	b.Cleanup(func() { s.Close() })
	st := loadOpen(b, s, "gold", gold, 16)
	return st
}

// BenchmarkExportNewickString is the before: materialize the whole tree,
// then the whole Newick string.
func BenchmarkExportNewickString(b *testing.B) {
	st := benchExportTree(b, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		full, err := st.ExportCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if s := newick.String(full); len(s) == 0 {
			b.Fatal("empty serialization")
		}
	}
}

// BenchmarkExportNewickStream is the after: one scan, chunked emission.
func BenchmarkExportNewickStream(b *testing.B) {
	st := benchExportTree(b, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.ExportNewickTo(context.Background(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
