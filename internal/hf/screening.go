package hf

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
)

// PairList holds the unique basis-function pairs (i >= j) with their
// Schwarz factors q_ij = sqrt((ij|ij)). The Cauchy-Schwarz bound
// |(ij|kl)| <= q_ij q_kl is the screening criterion of Section V-C: a
// quartet whose bound falls below the tolerance is dropped without
// computing it.
type PairList struct {
	N int // basis size
	I []int32
	J []int32
	Q []float64
}

// BuildPairs computes the Schwarz factors for every unique pair, in
// parallel over rows on the persistent worker team. Row i holds i+1
// pairs, so row cost grows linearly down the triangle; dynamic chunking
// keeps the workers balanced without a triangular pre-split.
func BuildPairs(m *Molecule, threads int) *PairList {
	n := m.NumFunctions()
	p := &PairList{N: n}
	nPairs := n * (n + 1) / 2
	p.I = make([]int32, nPairs)
	p.J = make([]int32, nPairs)
	p.Q = make([]float64, nPairs)
	workers := parallel.Workers(threads)
	parallel.For(workers, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := i * (i + 1) / 2
			for j := 0; j <= i; j++ {
				ab := newPairProduct(m.Basis[i], m.Basis[j])
				v := pairERI(&ab, &ab)
				if v < 0 {
					v = 0
				}
				p.I[base+j] = int32(i)
				p.J[base+j] = int32(j)
				p.Q[base+j] = math.Sqrt(v)
			}
		}
	})
	return p
}

// Pairs returns the number of unique pairs.
func (p *PairList) Pairs() int { return len(p.Q) }

// CountNonScreened returns the number of unique ERI quartets that survive
// Schwarz screening at the given tolerance: unordered pairs (p1 <= p2) of
// unique function pairs with q_p1 * q_p2 >= tol. This is the Table V
// "non-screened ERIs" count, computable without touching any quartet.
func (p *PairList) CountNonScreened(tol float64) int64 {
	if tol <= 0 {
		panic(fmt.Sprintf("hf: screening tolerance %g", tol))
	}
	qs := append([]float64(nil), p.Q...)
	sort.Float64s(qs) // ascending
	var count int64
	n := len(qs)
	for hi := n - 1; hi >= 0; hi-- {
		if qs[hi] == 0 {
			break
		}
		need := tol / qs[hi]
		// Smallest index lo with qs[lo] >= need; partners in [lo, hi].
		lo := sort.SearchFloat64s(qs[:hi+1], need)
		if lo > hi {
			continue
		}
		count += int64(hi - lo + 1)
	}
	// Each unordered quartet {p1 <= p2 by sorted position} is counted
	// exactly once, at hi = p2.
	return count
}

// CountNonScreenedEntries returns the number of surviving entries of the
// full four-dimensional ERI tensor — the Table V accounting, which does
// not reduce by the 8-fold permutational symmetry. An off-diagonal
// function pair (i > j) appears as both (ij) and (ji), so a surviving
// quartet of pairs (p1, p2) contributes deg(p1) * deg(p2) entries for the
// bra-ket orderings times 2 for bra<->ket when p1 != p2.
func (p *PairList) CountNonScreenedEntries(tol float64) int64 {
	if tol <= 0 {
		panic(fmt.Sprintf("hf: screening tolerance %g", tol))
	}
	type wq struct {
		q float64
		w int64 // 1 for diagonal pairs (i == j), 2 otherwise
	}
	items := make([]wq, len(p.Q))
	for k := range p.Q {
		w := int64(2)
		if p.I[k] == p.J[k] {
			w = 1
		}
		items[k] = wq{q: p.Q[k], w: w}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].q < items[b].q })
	// Prefix sums of weights over the ascending-q order.
	prefix := make([]int64, len(items)+1)
	for k, it := range items {
		prefix[k+1] = prefix[k] + it.w
	}
	qs := make([]float64, len(items))
	for k := range items {
		qs[k] = items[k].q
	}
	var entries int64
	for hi := len(items) - 1; hi >= 0; hi-- {
		if qs[hi] == 0 {
			break
		}
		need := tol / qs[hi]
		lo := sort.SearchFloat64s(qs[:hi+1], need)
		if lo > hi {
			continue
		}
		// Partners strictly below hi contribute twice (bra<->ket); the
		// diagonal partner (p1 == p2) contributes once.
		wBelow := prefix[hi] - prefix[lo]
		entries += items[hi].w * (2*wBelow + items[hi].w)
	}
	return entries
}

// VisitNonScreened enumerates the surviving quartets as pair-index pairs
// (a, b) with the guarantee that each unordered quartet is visited
// exactly once. Visits run sequentially.
func (p *PairList) VisitNonScreened(tol float64, visit func(a, b int)) {
	p.VisitNonScreenedParallel(tol, 1, func(_ int, a, b int) { visit(a, b) })
}

// VisitNonScreenedParallel distributes the surviving quartets over
// `workers` team workers; visit receives the worker index so callers can
// keep per-worker accumulators. Each unordered quartet is visited exactly
// once, by exactly one worker. Rows run in descending-q order with
// dynamic chunking: early rows have far more surviving partners than
// late ones, so pulled chunks rebalance the skew.
func (p *PairList) VisitNonScreenedParallel(tol float64, workers int, visit func(worker, a, b int)) {
	if tol <= 0 {
		panic(fmt.Sprintf("hf: screening tolerance %g", tol))
	}
	workers = parallel.Workers(workers)
	// Sort pair indices by descending q so each row's partner scan can
	// stop early.
	order := make([]int, len(p.Q))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return p.Q[order[x]] > p.Q[order[y]] })
	// Rows are sorted by q descending, so survival is monotone: once a
	// row's diagonal quartet q1*q1 fails the bound, every later row is
	// dry. Binary-search the cutoff instead of streaming rows past it.
	cutoff := sort.Search(len(order), func(s int) bool {
		q := p.Q[order[s]]
		return q == 0 || q*q < tol
	})
	grain := cutoff / (workers * 16)
	if grain < 1 {
		grain = 1
	}
	parallel.ForWorker(workers, cutoff, grain, func(w, lo, hi int) {
		for s1 := lo; s1 < hi; s1++ {
			visitRow(p, order, tol, s1, w, visit)
		}
	})
}

// visitRow emits the quartets of one outer row; it reports whether the
// row had any survivors (rows are processed in descending-q order, so a
// dry diagonal means all later rows are dry too).
func visitRow(p *PairList, order []int, tol float64, s1, worker int, visit func(worker, a, b int)) bool {
	q1 := p.Q[order[s1]]
	if q1 == 0 || q1*q1 < tol {
		return false
	}
	for s2 := s1; s2 < len(order); s2++ {
		if q1*p.Q[order[s2]] < tol {
			break
		}
		visit(worker, order[s1], order[s2])
	}
	return true
}
