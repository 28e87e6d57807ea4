package distance

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/seqsim"
	"repro/internal/treegen"
)

func alnOf(pairs map[string]string, order ...string) *seqsim.Alignment {
	a := &seqsim.Alignment{Seqs: make(map[string][]byte)}
	for _, n := range order {
		a.Names = append(a.Names, n)
		a.Seqs[n] = []byte(pairs[n])
	}
	return a
}

func TestPDistance(t *testing.T) {
	aln := alnOf(map[string]string{
		"a": "AAAA",
		"b": "AAAT",
		"c": "TTTT",
	}, "a", "b", "c")
	m, err := PDistance(aln)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 1); got != 0.25 {
		t.Fatalf("p(a,b) = %g", got)
	}
	if got := m.At(0, 2); got != 1.0 {
		t.Fatalf("p(a,c) = %g", got)
	}
	if got := m.At(1, 0); got != 0.25 {
		t.Fatal("asymmetric")
	}
}

func TestPDistanceSkipsAmbiguous(t *testing.T) {
	aln := alnOf(map[string]string{
		"a": "AA-N",
		"b": "ATTT",
	}, "a", "b")
	m, err := PDistance(aln)
	if err != nil {
		t.Fatal(err)
	}
	// Only 2 comparable sites; 1 differs.
	if got := m.At(0, 1); got != 0.5 {
		t.Fatalf("p = %g, want 0.5", got)
	}
	// All-ambiguous pair fails.
	bad := alnOf(map[string]string{"a": "--", "b": "AT"}, "a", "b")
	if _, err := PDistance(bad); err == nil {
		t.Fatal("no comparable sites accepted")
	}
}

func TestJCCorrection(t *testing.T) {
	aln := alnOf(map[string]string{
		"a": "AAAAAAAAAA",
		"b": "AAAAAAAATT", // p = 0.2
	}, "a", "b")
	m, err := JC(aln)
	if err != nil {
		t.Fatal(err)
	}
	want := -0.75 * math.Log(1-4*0.2/3)
	if got := m.At(0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("JC = %g, want %g", got, want)
	}
	// JC correction exceeds p (corrects for multiple hits).
	if m.At(0, 1) <= 0.2 {
		t.Fatal("correction did not increase distance")
	}
	// Saturation: p >= 0.75.
	sat := alnOf(map[string]string{"a": "AAAA", "b": "TTTT"}, "a", "b")
	if _, err := JC(sat); err == nil {
		t.Fatal("saturated pair accepted")
	}
}

// TestJCRecoversTrueDistance: simulate under JC and check the corrected
// distance approximates the true path length.
func TestJCRecoversTrueDistance(t *testing.T) {
	tr, err := treegen.Yule(2, 1, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// Force a known path length: 0.3 total.
	for _, l := range tr.Leaves() {
		l.Length = 0.15
	}
	aln, err := seqsim.Evolve(tr, seqsim.Config{Length: 100_000, Model: seqsim.JC69{}}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := JC(aln)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 1); math.Abs(got-0.3) > 0.02 {
		t.Fatalf("JC distance = %g, want ~0.3", got)
	}
}

// TestMatrixIndex pins the matrix's row index: row i is Names[i], in the
// order the builder was given, so callers address taxa by position.
func TestMatrixIndex(t *testing.T) {
	names := []string{"x", "y", "z"}
	m := New(names)
	names[0] = "changed"
	if m.Len() != 3 || m.Names[0] != "x" || m.Names[1] != "y" || m.Names[2] != "z" {
		t.Fatalf("New(x, y, z) rows = %v, Len %d", m.Names, m.Len())
	}
	m.Set(2, 1, 0.5)
	if m.At(1, 2) != 0.5 || m.At(2, 1) != 0.5 {
		t.Fatalf("Set(2, 1) not visible at (1, 2) and (2, 1)")
	}

	aln := alnOf(map[string]string{
		"c": "TTTT",
		"a": "AAAA",
		"b": "AAAT",
	}, "c", "a", "b")
	pm, err := PDistance(aln)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range aln.Names {
		if pm.Names[i] != want {
			t.Fatalf("PDistance row %d = %q, want %q", i, pm.Names[i], want)
		}
	}
	if got := pm.At(1, 2); got != 0.25 { // a vs b
		t.Fatalf("p(a,b) at rows (1, 2) = %g, want 0.25", got)
	}
}

func TestTooFewTaxa(t *testing.T) {
	one := alnOf(map[string]string{"a": "ACGT"}, "a")
	if _, err := PDistance(one); err == nil {
		t.Fatal("single-taxon matrix accepted")
	}
	if _, err := JC(one); err == nil {
		t.Fatal("single-taxon JC accepted")
	}
}
