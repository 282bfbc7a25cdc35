package hf

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// eriDirect is ERI as one expression over four primitives, with no pair
// records: the formula pairERI must reproduce bit for bit.
func eriDirect(a, b, c, d BasisFn) float64 {
	p, muAB, r2AB, pCenter := gaussProduct(a, b)
	q, muCD, r2CD, qCenter := gaussProduct(c, d)
	pre := a.Norm * b.Norm * c.Norm * d.Norm *
		2 * math.Pow(math.Pi, 2.5) / (p * q * math.Sqrt(p+q)) *
		math.Exp(-muAB*r2AB) * math.Exp(-muCD*r2CD)
	t := p * q / (p + q) * pCenter.Sub(qCenter).Norm2()
	return pre * BoysF0(t)
}

// TestPairERIBitIdentical: an ERI read from the cached pair products is
// the same float64 as ERI and as the direct formula, for every quartet
// of a scaled molecule. No tolerance.
func TestPairERIBitIdentical(t *testing.T) {
	mol := TableV()[3].Scaled(14).Build()
	bs := mol.Basis
	n := len(bs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				for l := 0; l < n; l++ {
					got, want := ERI(bs[i], bs[j], bs[k], bs[l]), eriDirect(bs[i], bs[j], bs[k], bs[l])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("ERI(%d,%d,%d,%d) = %v, direct formula %v", i, j, k, l, got, want)
					}
				}
			}
		}
	}
	pairs := BuildPairs(mol, 1)
	prods := pairProducts(mol, pairs)
	for a := range prods {
		for b := range prods {
			i, j, k, l := pairs.I[a], pairs.J[a], pairs.I[b], pairs.J[b]
			got, want := pairERI(&prods[a], &prods[b]), ERI(bs[i], bs[j], bs[k], bs[l])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pairERI(%d,%d|%d,%d) = %v, ERI %v", i, j, k, l, got, want)
			}
		}
		if q := math.Sqrt(pairERI(&prods[a], &prods[a])); q != pairs.Q[a] {
			t.Fatalf("pair %d: Schwarz factor %v, BuildPairs %v", a, q, pairs.Q[a])
		}
	}
}

// dedupImages is the brute-force image set: the eight permutation images
// of (i,j,k,l) in scatter order, each kept at its first occurrence, and
// the mask of the kept image numbers.
func dedupImages(i, j, k, l int32) (kept [][4]int32, mask uint8) {
	images := [8][4]int32{
		{i, j, k, l}, {j, i, k, l}, {i, j, l, k}, {j, i, l, k},
		{k, l, i, j}, {l, k, i, j}, {k, l, j, i}, {l, k, j, i},
	}
	for m, im := range images {
		dup := false
		for _, s := range kept {
			if s == im {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, im)
			mask |= 1 << m
		}
	}
	return kept, mask
}

// TestImageMaskMatchesDedup checks the equality-key mask table against
// the brute-force first-occurrence dedup for every quartet over
// {0..4}^4, and that applyQuartet scatters exactly those images, in
// order, with the same arithmetic: G must match bit for bit.
func TestImageMaskMatchesDedup(t *testing.T) {
	const n = 5
	d := linalg.NewMatrix(n)
	g0 := linalg.NewMatrix(n)
	for x := range d.Data {
		d.Data[x] = 1 / float64(3+x)
		g0.Data[x] = math.Sqrt(float64(7 + x))
	}
	const v = 0.7310585786300049
	for i := int32(0); i < n; i++ {
		for j := int32(0); j < n; j++ {
			for k := int32(0); k < n; k++ {
				for l := int32(0); l < n; l++ {
					kept, want := dedupImages(i, j, k, l)
					if got := imageMasks[equalityKey(i, j, k, l)]; got != want {
						t.Fatalf("(%d,%d,%d,%d): mask %08b, dedup %08b", i, j, k, l, got, want)
					}

					wantG, gotG := g0.Clone(), g0.Clone()
					for _, im := range kept {
						wantG.Add(int(im[0]), int(im[1]), 2*v*d.At(int(im[2]), int(im[3])))
						wantG.Add(int(im[0]), int(im[2]), -v*d.At(int(im[1]), int(im[3])))
					}
					applyQuartet(gotG, d, i, j, k, l, v)
					for x := range wantG.Data {
						if math.Float64bits(gotG.Data[x]) != math.Float64bits(wantG.Data[x]) {
							t.Fatalf("(%d,%d,%d,%d): G[%d] = %v, dedup scatter %v", i, j, k, l, x, gotG.Data[x], wantG.Data[x])
						}
					}
				}
			}
		}
	}
}

// TestSingleWorkerSCFPinned pins single-worker SCF results, as float64
// bits, to the values the per-quartet ERI and 8-image dedup scatter gave
// before the pair-product cache and the mask table replaced them. At one
// worker every Fock build sums in a fixed order, so any change to an ERI
// bit or to the scatter order shows here.
func TestSingleWorkerSCFPinned(t *testing.T) {
	cases := []struct {
		mol    *Molecule
		diis   bool
		energy uint64
		iters  int
	}{
		{smallMol(), false, 0xc02245dacc332f29, 17},
		{smallMol(), true, 0xc02245dadb848671, 7},
		{TableV()[3].Scaled(30).Build(), false, 0xc02129dd2cc170ec, 14},
		{TableV()[3].Scaled(30).Build(), true, 0xc02129dd5a214efe, 7},
		{TableV()[1].Scaled(24).Build(), false, 0xc016d67e83196c2c, 15},
		{TableV()[1].Scaled(24).Build(), true, 0xc016d67e9f9f1c1a, 7},
	}
	for _, c := range cases {
		for _, mode := range []Mode{HFComp, HFMem} {
			res, err := Run(c.mol, Config{Mode: mode, Threads: 1, UseDIIS: c.diis})
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(res.Energy); got != c.energy || res.Iterations != c.iters {
				t.Errorf("%s %v diis=%v: energy %#016x (%.12f) in %d iterations, want %#016x (%.12f) in %d",
					c.mol.Name, mode, c.diis, got, res.Energy, res.Iterations,
					c.energy, math.Float64frombits(c.energy), c.iters)
			}
		}
	}
}
