package hf

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// TestDIISMatchesDamping: DIIS must reach the same fixed point as the
// damped iteration.
func TestDIISMatchesDamping(t *testing.T) {
	mol := smallMol()
	plain, err := Run(mol, Config{Mode: HFMem})
	if err != nil {
		t.Fatal(err)
	}
	diis, err := Run(mol, Config{Mode: HFMem, UseDIIS: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !diis.Converged {
		t.Fatalf("convergence: plain=%v diis=%v", plain.Converged, diis.Converged)
	}
	if math.Abs(plain.Energy-diis.Energy) > 1e-5 {
		t.Errorf("energies differ: damped %v, DIIS %v", plain.Energy, diis.Energy)
	}
}

// TestDIISAccelerates: on a slower-converging system, DIIS needs no more
// iterations than plain damping (usually strictly fewer).
func TestDIISAccelerates(t *testing.T) {
	mol := MoleculeSpec{Name: "chain-8", Atoms: 8, Functions: 24, Shape: ShapeChain}.Build()
	plain, err := Run(mol, Config{Mode: HFMem, MaxIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	diis, err := Run(mol, Config{Mode: HFMem, MaxIters: 80, UseDIIS: true})
	if err != nil {
		t.Fatal(err)
	}
	if !diis.Converged {
		t.Fatal("DIIS did not converge")
	}
	if diis.Iterations > plain.Iterations {
		t.Errorf("DIIS took %d iterations vs damped %d", diis.Iterations, plain.Iterations)
	}
}

func TestDIISErrorVanishesAtConvergence(t *testing.T) {
	mol := smallMol()
	s := mol.OverlapMatrix()
	x := linalg.SymInvSqrt(s)
	h := mol.CoreHamiltonian()
	pairs := BuildPairs(mol, 0)
	prods := pairProducts(mol, pairs)
	d := densityStep(h, x, mol.OccupiedOrbitals(), DensityEigen)
	// Iterate to convergence manually, then check the commutator.
	var f *linalg.Matrix
	for i := 0; i < 60; i++ {
		f = fockRecompute(prods, h, d, pairs, 1e-12, 0)
		dNew := densityStep(f, x, mol.OccupiedOrbitals(), DensityEigen)
		if linalg.MaxAbsDiff(dNew, d) < 1e-10 {
			d = dNew
			break
		}
		for k := range d.Data {
			d.Data[k] = 0.7*dNew.Data[k] + 0.3*d.Data[k]
		}
	}
	e := diisError(f, d, s)
	if maxErr(e) > 1e-6 {
		t.Errorf("commutator FDS-SDF = %v at convergence, want ~0", maxErr(e))
	}
}

func TestDIISSubspaceManagement(t *testing.T) {
	dx := newDIIS(3)
	n := 4
	for i := 0; i < 6; i++ {
		f := linalg.NewMatrix(n)
		e := linalg.NewMatrix(n)
		f.Set(0, 0, float64(i))
		e.Set(0, 0, 1.0/float64(i+1))
		e.Set(1, 1, 0.1*float64(i%2)+0.01) // keep B nonsingular
		dx.push(f, e)
	}
	if len(dx.focks) != 3 {
		t.Errorf("subspace holds %d vectors, want 3", len(dx.focks))
	}
	if out := dx.extrapolate(); out == nil {
		t.Error("extrapolation failed on a healthy subspace")
	}
}

func TestDIISTooFewVectors(t *testing.T) {
	dx := newDIIS(4)
	dx.push(linalg.NewMatrix(2), linalg.NewMatrix(2))
	if dx.extrapolate() != nil {
		t.Error("extrapolation with one vector should return nil")
	}
}

func TestSolveLinearKnown(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	x, err := linalg.SolveLinear([]float64{2, 1, 1, 3}, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("solution = %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	if _, err := linalg.SolveLinear([]float64{1, 2, 2, 4}, []float64{1, 2}); err == nil {
		t.Error("singular system solved")
	}
	if _, err := linalg.SolveLinear([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Error("malformed system accepted")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	x, err := linalg.SolveLinear([]float64{0, 1, 1, 0}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("solution = %v, want [3 2]", x)
	}
}
