// Package seqsim simulates bio-molecular sequence evolution along a
// phylogenetic tree, the second half of the paper's gold-standard recipe
// ("the evolution of a bio-molecular sequence is simulated using the tree
// as a guide"). It implements the classic nucleotide substitution models
// with closed-form transition probabilities — Jukes–Cantor (JC69), Kimura
// two-parameter (K2P) and HKY85 — with optional discrete-gamma rate
// heterogeneity across sites.
package seqsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nexus"
	"repro/internal/phylo"
)

// bases are indexed A=0, C=1, G=2, T=3 throughout.
var bases = [4]byte{'A', 'C', 'G', 'T'}

// BaseIndex maps a nucleotide letter to its index, or -1.
func BaseIndex(b byte) int {
	switch b {
	case 'A', 'a':
		return 0
	case 'C', 'c':
		return 1
	case 'G', 'g':
		return 2
	case 'T', 't':
		return 3
	}
	return -1
}

// Model yields the 4x4 transition probability matrix P(t) for a branch of
// length t (expected substitutions per site).
type Model interface {
	// probabilities returns P where P[i][j] = Pr(j at child | i at parent).
	probabilities(t float64) [4][4]float64
	// freqs returns the equilibrium base frequencies.
	freqs() [4]float64
	// Name identifies the model in reports.
	Name() string
}

// JC69 is the Jukes–Cantor model: equal rates, uniform frequencies.
type JC69 struct{}

// Name implements Model.
func (JC69) Name() string { return "JC69" }

// freqs implements Model.
func (JC69) freqs() [4]float64 { return [4]float64{0.25, 0.25, 0.25, 0.25} }

// probabilities implements Model with the closed form
// P(same) = 1/4 + 3/4·e^(−4t/3), P(diff) = 1/4 − 1/4·e^(−4t/3).
func (JC69) probabilities(t float64) [4][4]float64 {
	e := math.Exp(-4.0 * t / 3.0)
	same := 0.25 + 0.75*e
	diff := 0.25 - 0.25*e
	var p [4][4]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				p[i][j] = same
			} else {
				p[i][j] = diff
			}
		}
	}
	return p
}

// K2P is Kimura's two-parameter model: transitions (A↔G, C↔T) occur kappa
// times faster than transversions; frequencies are uniform.
type K2P struct {
	Kappa float64
}

// Name implements Model.
func (m K2P) Name() string { return fmt.Sprintf("K2P(kappa=%g)", m.Kappa) }

// freqs implements Model.
func (K2P) freqs() [4]float64 { return [4]float64{0.25, 0.25, 0.25, 0.25} }

// probabilities implements Model. With rates normalized so t is the
// expected number of substitutions per site: alpha/beta = kappa and
// alpha + 2beta = 1.
func (m K2P) probabilities(t float64) [4][4]float64 {
	k := m.Kappa
	beta := 1.0 / (k + 2.0)
	alpha := k * beta
	e1 := math.Exp(-4 * beta * t)
	e2 := math.Exp(-2 * (alpha + beta) * t)
	same := 0.25 + 0.25*e1 + 0.5*e2
	ts := 0.25 + 0.25*e1 - 0.5*e2 // transition
	tv := 0.25 - 0.25*e1          // each transversion
	var p [4][4]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			switch {
			case i == j:
				p[i][j] = same
			case isTransition(i, j):
				p[i][j] = ts
			default:
				p[i][j] = tv
			}
		}
	}
	return p
}

// isTransition reports whether i->j (i != j) is a transition:
// A(0)<->G(2) or C(1)<->T(3).
func isTransition(i, j int) bool {
	return i != j && (i+j == 2 || i+j == 4)
}

// HKY85 combines a transition/transversion ratio with arbitrary base
// frequencies.
type HKY85 struct {
	Kappa     float64
	BaseFreqs [4]float64 // A, C, G, T; must sum to 1
}

// Name implements Model.
func (m HKY85) Name() string { return fmt.Sprintf("HKY85(kappa=%g)", m.Kappa) }

// freqs implements Model.
func (m HKY85) freqs() [4]float64 { return m.BaseFreqs }

// probabilities implements Model using the standard HKY closed form.
func (m HKY85) probabilities(t float64) [4][4]float64 {
	pi := m.BaseFreqs
	piR := pi[0] + pi[2] // purines A,G
	piY := pi[1] + pi[3] // pyrimidines C,T
	k := m.Kappa
	// Normalize so the mean substitution rate is 1.
	beta := 1.0 / (2*(pi[0]*pi[2]+pi[1]*pi[3])*k + 2*piR*piY)
	classFreq := func(j int) float64 {
		if j == 0 || j == 2 {
			return piR
		}
		return piY
	}
	e2 := math.Exp(-beta * t)
	var p [4][4]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			aj := classFreq(j)
			e3 := math.Exp(-beta * t * (1 + aj*(k-1)))
			switch {
			case i == j:
				p[i][j] = pi[j] + pi[j]*(1/aj-1)*e2 + ((aj-pi[j])/aj)*e3
			case isTransition(i, j):
				p[i][j] = pi[j] + pi[j]*(1/aj-1)*e2 - (pi[j]/aj)*e3
			default:
				p[i][j] = pi[j] * (1 - e2)
			}
		}
	}
	return p
}

// Config controls a simulation run.
type Config struct {
	Length     int     // sites per sequence
	Model      Model   // substitution model (required)
	GammaAlpha float64 // >0 enables gamma rate heterogeneity across sites
	Categories int     // discrete gamma categories (default 4)
	Scale      float64 // multiplies branch lengths (default 1)
	Root       []byte  // ancestral sequence; nil draws from the model's frequencies
}

// Alignment is the set of simulated sequences at the leaves.
type Alignment struct {
	Names []string          // leaf names in tree preorder
	Seqs  map[string][]byte // name -> sequence of length Config.Length
}

// Len returns the number of sites.
func (a *Alignment) Len() int {
	if len(a.Names) == 0 {
		return 0
	}
	return len(a.Seqs[a.Names[0]])
}

// Subset returns a new alignment restricted to the given names.
func (a *Alignment) Subset(names []string) (*Alignment, error) {
	out := &Alignment{Names: nil, Seqs: make(map[string][]byte, len(names))}
	for _, n := range names {
		seq, ok := a.Seqs[n]
		if !ok {
			return nil, fmt.Errorf("seqsim: no sequence for %q", n)
		}
		out.Names = append(out.Names, n)
		out.Seqs[n] = seq
	}
	return out, nil
}

// Characters converts the alignment to a NEXUS CHARACTERS block.
func (a *Alignment) Characters() *nexus.Characters {
	ch := &nexus.Characters{Datatype: "DNA", Missing: "?", Gap: "-", Seqs: make(map[string]string, len(a.Names))}
	for _, n := range a.Names {
		ch.Order = append(ch.Order, n)
		ch.Seqs[n] = string(a.Seqs[n])
	}
	return ch
}

// Errors from Evolve.
var (
	errNoModel   = errors.New("seqsim: config has no model")
	errBadLength = errors.New("seqsim: sequence length must be >= 1")
)

// Evolve simulates sequences down the tree and returns the alignment at
// the leaves. Interior sequences are transient. Deterministic given r.
func Evolve(t *phylo.Tree, cfg Config, r *rand.Rand) (*Alignment, error) {
	if cfg.Model == nil {
		return nil, errNoModel
	}
	if cfg.Length < 1 {
		return nil, errBadLength
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1
	}
	ncat := cfg.Categories
	if ncat <= 0 {
		ncat = 4
	}
	// Site rate categories (discrete gamma, Yang 1994), or a single
	// category of rate 1.
	var rates []float64
	if cfg.GammaAlpha > 0 {
		rates = discreteGamma(cfg.GammaAlpha, ncat)
	} else {
		rates = []float64{1}
	}
	siteCat := make([]uint8, cfg.Length)
	for i := range siteCat {
		siteCat[i] = uint8(r.Intn(len(rates)))
	}

	freqs := cfg.Model.freqs()
	root := make([]byte, cfg.Length)
	if cfg.Root != nil {
		if len(cfg.Root) != cfg.Length {
			return nil, fmt.Errorf("seqsim: root sequence length %d != %d", len(cfg.Root), cfg.Length)
		}
		for i, b := range cfg.Root {
			if BaseIndex(b) < 0 {
				return nil, fmt.Errorf("seqsim: bad base %q in root sequence", b)
			}
			root[i] = byte(BaseIndex(b))
		}
	} else {
		for i := range root {
			root[i] = sampleIndex(freqs[:], r)
		}
	}

	aln := &Alignment{Seqs: make(map[string][]byte)}
	// cum[i] caches per-category cumulative transition rows for the
	// current edge.
	type edgeTables struct {
		cum [][4][4]float64 // per category
	}
	var walk func(n *phylo.Node, seq []byte)
	walk = func(n *phylo.Node, seq []byte) {
		if n.IsLeaf() {
			out := make([]byte, len(seq))
			for i, b := range seq {
				out[i] = bases[b]
			}
			aln.Names = append(aln.Names, n.Name)
			aln.Seqs[n.Name] = out
			return
		}
		for _, c := range n.Children {
			tables := edgeTables{cum: make([][4][4]float64, len(rates))}
			for ci, rate := range rates {
				p := cfg.Model.probabilities(c.Length * scale * rate)
				for i := 0; i < 4; i++ {
					acc := 0.0
					for j := 0; j < 4; j++ {
						acc += p[i][j]
						tables.cum[ci][i][j] = acc
					}
				}
			}
			child := make([]byte, len(seq))
			for i, b := range seq {
				row := &tables.cum[siteCat[i]][b]
				u := r.Float64()
				j := 0
				for j < 3 && u > row[j] {
					j++
				}
				child[i] = byte(j)
			}
			walk(c, child)
		}
	}
	walk(t.Root, root)
	return aln, nil
}

func sampleIndex(freqs []float64, r *rand.Rand) byte {
	u := r.Float64()
	acc := 0.0
	for i, f := range freqs {
		acc += f
		if u <= acc {
			return byte(i)
		}
	}
	return byte(len(freqs) - 1)
}

// discreteGamma returns the mean rates of ncat equal-probability
// categories of a Gamma(alpha, 1/alpha) distribution (mean 1), following
// Yang (1994). Category means are approximated by the rate at each
// category's median quantile, renormalized to mean 1.
func discreteGamma(alpha float64, ncat int) []float64 {
	rates := make([]float64, ncat)
	sum := 0.0
	for i := 0; i < ncat; i++ {
		q := (float64(i) + 0.5) / float64(ncat)
		rates[i] = gammaQuantile(q, alpha, 1/alpha)
		sum += rates[i]
	}
	for i := range rates {
		rates[i] *= float64(ncat) / sum
	}
	return rates
}

// gammaQuantile inverts the Gamma(shape, scale) CDF by bisection on the
// regularized incomplete gamma function.
func gammaQuantile(p, shape, scale float64) float64 {
	lo, hi := 0.0, shape*scale*20+10
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if gammaCDF(mid/scale, shape) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// gammaCDF is the regularized lower incomplete gamma P(shape, x), via the
// series expansion for x < shape+1 and the continued fraction otherwise
// (Numerical Recipes style).
func gammaCDF(x, shape float64) float64 {
	if x <= 0 {
		return 0
	}
	lg := lgamma(shape)
	if x < shape+1 {
		// Series.
		ap := shape
		sum := 1.0 / shape
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-14 {
				break
			}
		}
		return sum * math.Exp(-x+shape*math.Log(x)-lg)
	}
	// Continued fraction for Q, then P = 1-Q.
	const tiny = 1e-300
	b := x + 1 - shape
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - shape)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	q := math.Exp(-x+shape*math.Log(x)-lg) * h
	return 1 - q
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
