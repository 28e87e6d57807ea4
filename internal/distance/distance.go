// Package distance computes pairwise evolutionary distance matrices from
// sequence alignments — the input to the distance-based reconstruction
// algorithms the Benchmark Manager evaluates. It provides the observed
// proportion of differing sites (p-distance) and the Jukes–Cantor
// correction matching package seqsim's JC69 simulator.
package distance

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/seqsim"
)

// Matrix is a symmetric pairwise distance matrix with named rows.
type Matrix struct {
	Names []string
	D     [][]float64
}

// New allocates a zero matrix for the given names.
func New(names []string) *Matrix {
	m := &Matrix{Names: append([]string(nil), names...)}
	m.D = make([][]float64, len(names))
	for i := range m.D {
		m.D[i] = make([]float64, len(names))
	}
	return m
}

// Len returns the number of taxa.
func (m *Matrix) Len() int { return len(m.Names) }

// At returns the distance between taxa i and j.
func (m *Matrix) At(i, j int) float64 { return m.D[i][j] }

// Set sets the symmetric distance between taxa i and j.
func (m *Matrix) Set(i, j int, v float64) {
	m.D[i][j] = v
	m.D[j][i] = v
}

// Errors from matrix builders.
var (
	errTooFewTaxa = errors.New("distance: need at least 2 sequences")
	ErrSaturated  = errors.New("distance: correction undefined (sequences too divergent)")
)

// PDistance returns the observed proportion of differing sites for every
// pair. Sites where either sequence has a non-ACGT symbol are skipped.
func PDistance(aln *seqsim.Alignment) (*Matrix, error) {
	return build(aln, func(p float64) (float64, error) { return p, nil })
}

// JC returns Jukes–Cantor corrected distances:
// d = -3/4 · ln(1 - 4p/3). Pairs with p >= 0.75 are saturated.
func JC(aln *seqsim.Alignment) (*Matrix, error) {
	return build(aln, func(p float64) (float64, error) {
		x := 1 - 4*p/3
		if x <= 0 {
			return 0, fmt.Errorf("%w: p=%g", ErrSaturated, p)
		}
		return -0.75 * math.Log(x), nil
	})
}

func build(aln *seqsim.Alignment, correct func(p float64) (float64, error)) (*Matrix, error) {
	names := aln.Names
	if len(names) < 2 {
		return nil, errTooFewTaxa
	}
	m := New(names)
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			si, sj := aln.Seqs[names[i]], aln.Seqs[names[j]]
			diff, n := 0, 0
			for k := 0; k < len(si) && k < len(sj); k++ {
				bi, bj := seqsim.BaseIndex(si[k]), seqsim.BaseIndex(sj[k])
				if bi < 0 || bj < 0 {
					continue
				}
				n++
				if bi != bj {
					diff++
				}
			}
			if n == 0 {
				return nil, fmt.Errorf("distance: no comparable sites between %s and %s", names[i], names[j])
			}
			d, err := correct(float64(diff) / float64(n))
			if err != nil {
				return nil, err
			}
			m.Set(i, j, d)
		}
	}
	return m, nil
}
