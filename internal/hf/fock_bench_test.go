package hf

// Layer benchmarks for the Hartree-Fock host kernel: one ERI, and one
// Fock build along each of Table VI's two paths at one worker. pairERI
// and applyQuartet, the per-quartet work these measure, carry a
// //p8:hotpath directive.

import (
	"testing"

	"repro/internal/linalg"
)

// fockBenchSetup builds a scaled 1hsg-28 (table VI's host molecule) and
// returns its core Hamiltonian, the core-guess density, and its pair
// list and pair products.
func fockBenchSetup(b *testing.B) (h, d *linalg.Matrix, pairs *PairList, prods []pairProduct) {
	b.Helper()
	mol := TableV()[3].Scaled(40).Build()
	h = mol.CoreHamiltonian()
	x := linalg.SymInvSqrt(mol.OverlapMatrix())
	d = densityStep(h, x, mol.OccupiedOrbitals(), DensityEigen)
	pairs = BuildPairs(mol, 1)
	return h, d, pairs, pairProducts(mol, pairs)
}

// eriSink keeps the benchmarked ERIs live.
var eriSink float64

// BenchmarkHostERIQuartet measures one ERI: "ERI" builds both pair
// products per call, "pairERI" reads them from the cache hf.Run keeps.
func BenchmarkHostERIQuartet(b *testing.B) {
	mol := TableV()[3].Scaled(64).Build()
	bs := mol.Basis
	b.Run("ERI", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += ERI(bs[i%16], bs[(i+7)%16], bs[(i+3)%16], bs[(i+11)%16])
		}
		eriSink = sink
	})
	b.Run("pairERI", func(b *testing.B) {
		var prods [16][16]pairProduct
		for i := range prods {
			for j := range prods[i] {
				prods[i][j] = newPairProduct(bs[i], bs[j])
			}
		}
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += pairERI(&prods[i%16][(i+7)%16], &prods[(i+3)%16][(i+11)%16])
		}
		eriSink = sink
	})
}

// BenchmarkFockRecompute is one HF-Comp Fock build: every surviving
// quartet's ERI recomputed from the pair products and scattered.
func BenchmarkFockRecompute(b *testing.B) {
	h, d, pairs, prods := fockBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fockRecompute(prods, h, d, pairs, 1e-10, 1)
	}
	b.ReportMetric(float64(pairs.CountNonScreened(1e-10)), "quartets/op")
}

// BenchmarkFockFromStored is one HF-Mem Fock build: the stored quartet
// list scattered, no ERI computed.
func BenchmarkFockFromStored(b *testing.B) {
	h, d, pairs, prods := fockBenchSetup(b)
	stored := storeNonScreened(pairs, prods, 1e-10, pairs.CountNonScreened(1e-10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fockFromStored(h, d, stored, 1)
	}
	b.ReportMetric(float64(len(stored)), "quartets/op")
}
