package hf

import (
	"math"

	"repro/internal/linalg"
)

// BoysF0 is the zeroth-order Boys function F0(t) = integral over [0,1] of
// exp(-t x^2) dx, the radial kernel of every Coulomb-type integral over
// s Gaussians.
func BoysF0(t float64) float64 {
	if t < 1e-12 {
		return 1 - t/3
	}
	return 0.5 * math.Sqrt(math.Pi/t) * math.Erf(math.Sqrt(t))
}

// gaussProduct returns the Gaussian product parameters of two s
// primitives: total exponent p, reduced exponent mu, squared distance
// R2, and product center P.
func gaussProduct(a, b BasisFn) (p, mu, r2 float64, center Vec3) {
	p = a.Alpha + b.Alpha
	mu = a.Alpha * b.Alpha / p
	r2 = a.Center.Sub(b.Center).Norm2()
	center = a.Center.Scale(a.Alpha / p).Add(b.Center.Scale(b.Alpha / p))
	return p, mu, r2, center
}

// Overlap returns <a|b>.
func Overlap(a, b BasisFn) float64 {
	p, mu, r2, _ := gaussProduct(a, b)
	return a.Norm * b.Norm * math.Pow(math.Pi/p, 1.5) * math.Exp(-mu*r2)
}

// Kinetic returns <a| -1/2 Laplacian |b>.
func Kinetic(a, b BasisFn) float64 {
	p, mu, r2, _ := gaussProduct(a, b)
	s := a.Norm * b.Norm * math.Pow(math.Pi/p, 1.5) * math.Exp(-mu*r2)
	return mu * (3 - 2*mu*r2) * s
}

// NuclearAttraction returns <a| sum_C -Z_C/|r-C| |b>.
func NuclearAttraction(a, b BasisFn, atoms []Atom) float64 {
	p, mu, r2, center := gaussProduct(a, b)
	pre := a.Norm * b.Norm * 2 * math.Pi / p * math.Exp(-mu*r2)
	var v float64
	for _, at := range atoms {
		t := p * center.Sub(at.Pos).Norm2()
		v -= at.Charge * pre * BoysF0(t)
	}
	return v
}

// pi25 is pi^(5/2), the constant factor of every ERI prefactor.
var pi25 = math.Pow(math.Pi, 2.5)

// pairProduct is the Gaussian product of two s primitives reduced to
// what an ERI reads from one side of (ab|cd): the two norms (kept apart
// so the prefactor multiplies them in the same order as four separate
// norms), the total exponent p, exp(-mu R2) and the product center.
// Every ERI over a pair shares these, so hf.Run computes them once per
// unique pair instead of once per quartet.
type pairProduct struct {
	normA, normB float64
	p            float64
	expMuR2      float64
	center       Vec3
}

// newPairProduct returns the product record of primitives a and b.
func newPairProduct(a, b BasisFn) pairProduct {
	p, mu, r2, center := gaussProduct(a, b)
	return pairProduct{normA: a.Norm, normB: b.Norm, p: p, expMuR2: math.Exp(-mu * r2), center: center}
}

// ERI returns the two-electron repulsion integral (ab|cd) in chemists'
// notation over normalized s primitives.
func ERI(a, b, c, d BasisFn) float64 {
	ab, cd := newPairProduct(a, b), newPairProduct(c, d)
	return pairERI(&ab, &cd)
}

// pairERI returns (ab|cd) from the two pairs' product records. It is
// the one ERI formula: ERI builds the records and calls it, so a cached
// record gives the same bits as a fresh one.
//
//p8:hotpath
func pairERI(ab, cd *pairProduct) float64 {
	p, q := ab.p, cd.p
	pre := ab.normA * ab.normB * cd.normA * cd.normB *
		2 * pi25 / (p * q * math.Sqrt(p+q)) *
		ab.expMuR2 * cd.expMuR2
	t := p * q / (p + q) * ab.center.Sub(cd.center).Norm2()
	return pre * BoysF0(t)
}

// OverlapMatrix builds S.
func (m *Molecule) OverlapMatrix() *linalg.Matrix {
	n := m.NumFunctions()
	s := linalg.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := Overlap(m.Basis[i], m.Basis[j])
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	return s
}

// KineticMatrix builds T.
func (m *Molecule) KineticMatrix() *linalg.Matrix {
	n := m.NumFunctions()
	t := linalg.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := Kinetic(m.Basis[i], m.Basis[j])
			t.Set(i, j, v)
			t.Set(j, i, v)
		}
	}
	return t
}

// NuclearMatrix builds V, the electron-nuclear attraction operator.
func (m *Molecule) NuclearMatrix() *linalg.Matrix {
	n := m.NumFunctions()
	v := linalg.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			val := NuclearAttraction(m.Basis[i], m.Basis[j], m.Atoms)
			v.Set(i, j, val)
			v.Set(j, i, val)
		}
	}
	return v
}

// CoreHamiltonian builds H_core = T + V.
func (m *Molecule) CoreHamiltonian() *linalg.Matrix {
	h := m.KineticMatrix()
	v := m.NuclearMatrix()
	for k := range h.Data {
		h.Data[k] += v.Data[k]
	}
	return h
}
