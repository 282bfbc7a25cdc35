package hf

import (
	"fmt"
	"time"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/units"
)

// Mode selects the ERI strategy of Section V-C.
type Mode int

// The two algorithm variants Table VI compares.
const (
	// HFComp recomputes all non-screened ERIs at every SCF iteration,
	// the strategy of conventional packages like NWChem.
	HFComp Mode = iota
	// HFMem precomputes the non-screened ERIs once and stores them,
	// the strategy the E870's memory capacity enables.
	HFMem
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == HFComp {
		return "HF-Comp"
	}
	return "HF-Mem"
}

// DensityMethod selects how the density stage computes the spectral
// projector of the Fock matrix.
type DensityMethod int

// Density stage variants.
const (
	// DensityEigen diagonalizes the orthogonalized Fock matrix (Jacobi)
	// and occupies the lowest orbitals — the textbook Roothaan step.
	DensityEigen DensityMethod = iota
	// DensityPurify builds the projector by canonical McWeeny
	// purification, avoiding diagonalization — the "spectral projector"
	// computation Section V-C refers to.
	DensityPurify
)

// String implements fmt.Stringer.
func (d DensityMethod) String() string {
	if d == DensityPurify {
		return "purification"
	}
	return "eigensolve"
}

// Config controls an SCF run.
type Config struct {
	Mode      Mode
	Density   DensityMethod
	MaxIters  int     // default 50
	ConvTol   float64 // max-abs density change; default 1e-6
	ScreenTol float64 // Schwarz tolerance; default 1e-10 (the paper's)
	Threads   int     // 0 = all CPUs
	Damping   float64 // fraction of the old density retained; default 0.3
	// UseDIIS enables Pulay convergence acceleration; damping is then
	// ignored (DIIS supplies the mixing).
	UseDIIS bool
}

func (c Config) withDefaults() Config {
	if c.MaxIters == 0 {
		c.MaxIters = 50
	}
	if c.ConvTol == 0 {
		c.ConvTol = 1e-6
	}
	if c.ScreenTol == 0 {
		c.ScreenTol = 1e-10
	}
	if c.Damping == 0 {
		c.Damping = 0.3
	}
	return c
}

// Timings breaks an SCF run into the Table VI components.
type Timings struct {
	Precomp time.Duration // ERI precomputation (HF-Mem only, once)
	Fock    time.Duration // total Fock-build time across iterations
	Density time.Duration // total density-build time across iterations
}

// EnergyComponents decomposes the total energy (all in Hartree).
type EnergyComponents struct {
	Kinetic           float64 // 2 Tr(D T), positive
	NuclearAttraction float64 // 2 Tr(D V), negative for bound electrons
	TwoElectron       float64 // Tr(D G), electron-electron repulsion
	NuclearRepulsion  float64
}

// Total returns the components' sum.
func (e EnergyComponents) Total() float64 {
	return e.Kinetic + e.NuclearAttraction + e.TwoElectron + e.NuclearRepulsion
}

// Result summarizes an SCF run.
type Result struct {
	Molecule    string
	Mode        Mode
	Energy      float64 // total energy, Hartree
	Components  EnergyComponents
	Iterations  int
	Converged   bool
	NonScreened int64 // surviving unique ERI quartets
	// StoredERIBytes is the HF-Mem value-storage footprint at 8 bytes
	// per surviving quartet (the Table V accounting).
	StoredERIBytes units.Bytes
	Timings        Timings
	Total          time.Duration
}

// FockPerIter returns the mean Fock-build time per iteration.
func (r *Result) FockPerIter() time.Duration {
	if r.Iterations == 0 {
		return 0
	}
	return r.Timings.Fock / time.Duration(r.Iterations)
}

// DensityPerIter returns the mean density-build time per iteration.
func (r *Result) DensityPerIter() time.Duration {
	if r.Iterations == 0 {
		return 0
	}
	return r.Timings.Density / time.Duration(r.Iterations)
}

// storedQuartet is one retained ERI for HF-Mem.
type storedQuartet struct {
	i, j, k, l int32
	v          float64
}

// Run executes the restricted Hartree-Fock SCF procedure.
func Run(mol *Molecule, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := mol.NumFunctions()
	nOcc := mol.OccupiedOrbitals()
	if nOcc > n {
		return nil, fmt.Errorf("hf: %d occupied orbitals exceed %d basis functions", nOcc, n)
	}
	start := time.Now()
	res := &Result{Molecule: mol.Name, Mode: cfg.Mode}

	s := mol.OverlapMatrix()
	h := mol.CoreHamiltonian()
	x := linalg.SymInvSqrt(s)
	pairs := BuildPairs(mol, cfg.Threads)
	res.NonScreened = pairs.CountNonScreened(cfg.ScreenTol)
	res.StoredERIBytes = units.Bytes(res.NonScreened) * 8
	prods := pairProducts(mol, pairs)

	var stored []storedQuartet
	if cfg.Mode == HFMem {
		t0 := time.Now()
		stored = storeNonScreened(pairs, prods, cfg.ScreenTol, res.NonScreened)
		res.Timings.Precomp = time.Since(t0)
	}

	// Initial guess: core Hamiltonian.
	d := densityStep(h, x, nOcc, cfg.Density)
	var f *linalg.Matrix
	var accel *diis
	if cfg.UseDIIS {
		accel = newDIIS(6)
	}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		res.Iterations = iter

		t0 := time.Now()
		if cfg.Mode == HFMem {
			f = fockFromStored(h, d, stored, cfg.Threads)
		} else {
			f = fockRecompute(prods, h, d, pairs, cfg.ScreenTol, cfg.Threads)
		}
		if accel != nil {
			e := diisError(f, d, s)
			accel.push(f, e)
			if fx := accel.extrapolate(); fx != nil {
				f = fx
			}
		}
		res.Timings.Fock += time.Since(t0)

		t0 = time.Now()
		dNew := densityStep(f, x, nOcc, cfg.Density)
		res.Timings.Density += time.Since(t0)

		delta := linalg.MaxAbsDiff(dNew, d)
		if accel != nil {
			// DIIS supplies the mixing; take the new density directly.
			copy(d.Data, dNew.Data)
		} else {
			// Damped update stabilizes the synthetic systems.
			for kk := range d.Data {
				d.Data[kk] = (1-cfg.Damping)*dNew.Data[kk] + cfg.Damping*d.Data[kk]
			}
		}
		if delta < cfg.ConvTol {
			res.Converged = true
			break
		}
	}

	// E = sum_ij D_ij (H_ij + F_ij) + E_nuc (closed-shell convention with
	// D built from doubly occupied orbitals carrying unit weight).
	var elec float64
	for k := range d.Data {
		elec += d.Data[k] * (h.Data[k] + f.Data[k])
	}
	res.Energy = elec + mol.NuclearRepulsion()

	// Decomposition: E = 2 Tr(D T) + 2 Tr(D V) + Tr(D G) + E_nucrep.
	tm := mol.KineticMatrix()
	vm := mol.NuclearMatrix()
	for k := range d.Data {
		res.Components.Kinetic += 2 * d.Data[k] * tm.Data[k]
		res.Components.NuclearAttraction += 2 * d.Data[k] * vm.Data[k]
		res.Components.TwoElectron += d.Data[k] * (f.Data[k] - h.Data[k])
	}
	res.Components.NuclearRepulsion = mol.NuclearRepulsion()

	res.Total = time.Since(start)
	return res, nil
}

// densityStep solves the Roothaan equation in the orthogonal basis:
// F' = X F X, then either eigensolve + occupy (C = X C',
// D = C_occ C_occ^T) or McWeeny purification of F' followed by the
// back-transform D = X D' X.
func densityStep(f, x *linalg.Matrix, nOcc int, method DensityMethod) *linalg.Matrix {
	n := f.N
	tmp := linalg.NewMatrix(n)
	fp := linalg.NewMatrix(n)
	linalg.MatMul(tmp, x, f)
	linalg.MatMul(fp, tmp, x)
	// Symmetrize against round-off.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (fp.At(i, j) + fp.At(j, i)) / 2
			fp.Set(i, j, v)
			fp.Set(j, i, v)
		}
	}
	if method == DensityPurify {
		dp, err := linalg.McWeenyPurify(fp, nOcc, 1e-11, 300)
		if err == nil {
			d := linalg.NewMatrix(n)
			linalg.MatMul(tmp, x, dp)
			linalg.MatMul(d, tmp, x)
			return d
		}
		// Purification can stall when HOMO and LUMO are degenerate
		// mid-SCF; fall back to the eigensolver for this step.
	}
	_, cp := linalg.JacobiEigen(fp)
	c := linalg.NewMatrix(n)
	linalg.MatMul(c, x, cp)
	return linalg.DensityFromOrbitals(c, nOcc)
}

// FockReference builds G_ab = sum_cd D_cd (2(ab|cd) - (ac|bd)) by direct
// quadruple loop with no screening or symmetry — the oracle the fast
// builders are tested against.
func FockReference(mol *Molecule, h, d *linalg.Matrix) *linalg.Matrix {
	n := mol.NumFunctions()
	f := h.Clone()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			var g float64
			for c := 0; c < n; c++ {
				for dd := 0; dd < n; dd++ {
					g += d.At(c, dd) * (2*ERI(mol.Basis[a], mol.Basis[b], mol.Basis[c], mol.Basis[dd]) -
						ERI(mol.Basis[a], mol.Basis[c], mol.Basis[b], mol.Basis[dd]))
				}
			}
			f.Add(a, b, g)
		}
	}
	return f
}

// pairProducts returns the Gaussian product record of every unique pair,
// indexed like the pair list. It lives beside the pair list rather than
// in it: table V builds pair lists for thousands of functions and never
// computes an ERI from them.
func pairProducts(mol *Molecule, pairs *PairList) []pairProduct {
	prods := make([]pairProduct, pairs.Pairs())
	for a := range prods {
		prods[a] = newPairProduct(mol.Basis[pairs.I[a]], mol.Basis[pairs.J[a]])
	}
	return prods
}

// storeNonScreened computes the ERI of every quartet that survives
// screening at tol — the HF-Mem precompute. count is the survivor count,
// used as the list's capacity.
func storeNonScreened(pairs *PairList, prods []pairProduct, tol float64, count int64) []storedQuartet {
	stored := make([]storedQuartet, 0, count)
	pairs.VisitNonScreened(tol, func(a, b int) {
		v := pairERI(&prods[a], &prods[b])
		stored = append(stored, storedQuartet{pairs.I[a], pairs.J[a], pairs.I[b], pairs.J[b], v})
	})
	return stored
}

// imagePerms lists the eight permutation images of a quartet (i,j,k,l)
// as positions into (i,j,k,l), in scatter order: (ijkl), (jikl), (ijlk),
// (jilk), (klij), (lkij), (klji), (lkji).
var imagePerms = [8][4]uint8{
	{0, 1, 2, 3}, {1, 0, 2, 3}, {0, 1, 3, 2}, {1, 0, 3, 2},
	{2, 3, 0, 1}, {3, 2, 0, 1}, {2, 3, 1, 0}, {3, 2, 1, 0},
}

// equalPositions lists the six position pairs of a quartet; bit b of an
// equality key is set when the indices at equalPositions[b] are equal.
var equalPositions = [6][2]uint8{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

// imageMasks maps an equality key to the images applyQuartet scatters:
// bit m is set when image m is the first of the eight to take its value.
// Which images coincide depends only on which indices are equal, so the
// 64 keys cover every quartet (keys no quartet can have, such as i == j
// == k with i != k, are filled but never read).
var imageMasks = buildImageMasks()

func buildImageMasks() [64]uint8 {
	var masks [64]uint8
	for key := range masks {
		var eq [4][4]bool
		for x := range eq {
			eq[x][x] = true
		}
		for b, pos := range equalPositions {
			if key&(1<<b) != 0 {
				eq[pos[0]][pos[1]] = true
				eq[pos[1]][pos[0]] = true
			}
		}
		for m, pm := range imagePerms {
			first := true
			for _, pn := range imagePerms[:m] {
				if eq[pm[0]][pn[0]] && eq[pm[1]][pn[1]] && eq[pm[2]][pn[2]] && eq[pm[3]][pn[3]] {
					first = false
					break
				}
			}
			if first {
				masks[key] |= 1 << m
			}
		}
	}
	return masks
}

// equalityKey returns the equality key of quartet (i,j,k,l), with bits
// in equalPositions order.
func equalityKey(i, j, k, l int32) uint8 {
	var key uint8
	if i == j {
		key |= 1 << 0
	}
	if i == k {
		key |= 1 << 1
	}
	if i == l {
		key |= 1 << 2
	}
	if j == k {
		key |= 1 << 3
	}
	if j == l {
		key |= 1 << 4
	}
	if k == l {
		key |= 1 << 5
	}
	return key
}

// applyQuartet adds one ERI value's contributions to G for every distinct
// permutation image of the canonical quartet: for an image (a,b,c,d),
// the Coulomb term adds 2 v D[c,d] to G[a,b] and the exchange term
// subtracts v D[b,d] from G[a,c]. Images are applied in imagePerms
// order, each distinct image once.
//
//p8:hotpath
func applyQuartet(g, d *linalg.Matrix, i, j, k, l int32, v float64) {
	mask := imageMasks[equalityKey(i, j, k, l)]
	n, gd, dd := g.N, g.Data, d.Data
	ii, jj, kk, ll := int(i), int(j), int(k), int(l)
	if mask&(1<<0) != 0 {
		scatterImage(gd, dd, n, ii, jj, kk, ll, v)
	}
	if mask&(1<<1) != 0 {
		scatterImage(gd, dd, n, jj, ii, kk, ll, v)
	}
	if mask&(1<<2) != 0 {
		scatterImage(gd, dd, n, ii, jj, ll, kk, v)
	}
	if mask&(1<<3) != 0 {
		scatterImage(gd, dd, n, jj, ii, ll, kk, v)
	}
	if mask&(1<<4) != 0 {
		scatterImage(gd, dd, n, kk, ll, ii, jj, v)
	}
	if mask&(1<<5) != 0 {
		scatterImage(gd, dd, n, ll, kk, ii, jj, v)
	}
	if mask&(1<<6) != 0 {
		scatterImage(gd, dd, n, kk, ll, jj, ii, v)
	}
	if mask&(1<<7) != 0 {
		scatterImage(gd, dd, n, ll, kk, jj, ii, v)
	}
}

// scatterImage applies image (a,b,c,e) of a quartet with value v to the
// n×n row-major G and D.
func scatterImage(gd, dd []float64, n, a, b, c, e int, v float64) {
	gd[a*n+b] += 2 * v * dd[c*n+e]
	gd[a*n+c] += -v * dd[b*n+e]
}

// fockFromStored builds F = H + G(D) from the precomputed quartet list
// on the persistent worker team, with per-worker accumulators. The
// split is static (every stored quartet costs the same) so the
// per-worker partial sums merge in a deterministic order and the SCF
// trajectory is bit-reproducible for a fixed worker count.
func fockFromStored(h, d *linalg.Matrix, stored []storedQuartet, threads int) *linalg.Matrix {
	workers := parallel.Workers(threads)
	parts := make([]*linalg.Matrix, workers)
	parallel.StaticFor(workers, len(stored), func(w, lo, hi int) {
		g := linalg.NewMatrix(h.N)
		for _, q := range stored[lo:hi] {
			applyQuartet(g, d, q.i, q.j, q.k, q.l, q.v)
		}
		parts[w] = g
	})
	f := h.Clone()
	for _, g := range parts {
		if g == nil {
			continue
		}
		for k := range f.Data {
			f.Data[k] += g.Data[k]
		}
	}
	return f
}

// fockRecompute builds F = H + G(D) by walking the surviving quartets and
// recomputing each ERI from the cached pair products — the HF-Comp inner
// loop — in parallel with per-worker accumulators.
func fockRecompute(prods []pairProduct, h, d *linalg.Matrix, pairs *PairList, tol float64, threads int) *linalg.Matrix {
	workers := parallel.Workers(threads)
	parts := make([]*linalg.Matrix, workers)
	for w := range parts {
		parts[w] = linalg.NewMatrix(h.N)
	}
	pairs.VisitNonScreenedParallel(tol, workers, func(w, a, b int) {
		v := pairERI(&prods[a], &prods[b])
		applyQuartet(parts[w], d, pairs.I[a], pairs.J[a], pairs.I[b], pairs.J[b], v)
	})
	f := h.Clone()
	for _, g := range parts {
		for k := range f.Data {
			f.Data[k] += g.Data[k]
		}
	}
	return f
}
