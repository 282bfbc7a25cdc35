// Package engine is a golden stand-in for repro/internal/engine: the
// analyzer's select rule guards the shard-merge idiom here. Cross-shard
// event streams must merge through the canonical (time, shard, seq)
// sorted order; draining them through a multi-way select would let the
// runtime's randomized case choice reach simulated results. Its calls
// into helpers are what the call-graph closure checks.
package engine

import (
	"helpers"
	"sort"
)

type mail struct {
	at  uint64
	seq uint64
}

// sortedMerge is the sanctioned idiom: collect every shard's outbox,
// then order by the canonical (time, seq) key. No select involved.
func sortedMerge(boxes [][]mail) []mail {
	var all []mail
	for _, box := range boxes {
		all = append(all, box...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].at != all[j].at {
			return all[i].at < all[j].at
		}
		return all[i].seq < all[j].seq
	})
	return all
}

// selectMerge is the banned shape: with both channels ready the runtime
// picks a case uniformly at random, so arrival order — and therefore
// the simulation's event order — depends on goroutine scheduling.
func selectMerge(a, b chan mail) mail {
	select { // want `a select over 2 channels resolves ready cases in randomized order`
	case m := <-a:
		return m
	case m := <-b:
		return m
	}
}

// nonBlocking shows that a single-case select (the try-receive idiom)
// is just a non-blocking operation and stays legal.
func nonBlocking(c chan mail) (mail, bool) {
	select {
	case m := <-c:
		return m, true
	default:
		return mail{}, false
	}
}

// allowedSelect pins the suppression protocol for the select rule.
func allowedSelect(a, b chan struct{}) {
	//p8:allow determinism: golden test — both cases are equivalent signals
	select {
	case <-a:
	case <-b:
	}
}

// Simulate reaches the wall clock two frames down.
func Simulate() int64 {
	return helpers.Chain() // want `nondeterminism reaches engine through this call: helpers\.Stamp reads the wall clock \(time\.Now\).*engine\.Simulate → helpers\.Chain → helpers\.Stamp`
}

// Jitter reaches math/rand one frame down.
func Jitter() int {
	return helpers.Roll() // want `helpers\.Roll uses math/rand`
}

// Arbitrary leaks map order through the helper.
func Arbitrary(m map[string]int) int {
	return helpers.Pick(m) // want `helpers\.Pick lets map iteration order escape`
}

// Clean calls only order-safe helpers; nothing fires.
func Clean(m map[string]int) int {
	_ = helpers.Sorted(m)
	return helpers.Sum(m)
}

// Waived calls a helper whose offense line carries a determinism
// allow; the leaf justification is honored.
func Waived() int64 {
	return helpers.StampWaived()
}

// SiteWaived suppresses the chain finding at the call site instead.
func SiteWaived() int64 {
	return helpers.Chain() //p8:allow determinism: boot-time provenance stamp, taken before any event is scheduled
}
