// Package deep exercises the interprocedural hot-path closure rules:
// offenses in transitive callees, chain diagnostics, leaf-allow
// respect, dynamic call sites and conservative interface dispatch.
package deep

import (
	"fmt"
	"time"
)

// helperClean is fine everywhere.
func helperClean(x int) int { return x * 2 }

// helperFmt allocates through fmt.
func helperFmt(x int) string { return fmt.Sprintf("%d", x) }

// helperMid hops once more, so the chain has three links.
func helperMid(x int) string { return helperFmt(x) }

// helperClockAllowed reads the wall clock, but the line carries a
// hotpath allow, which the closure honors at the leaf.
func helperClockAllowed() int64 {
	return time.Now().UnixNano() //p8:allow hotpath: stamped once per dispatch, off the per-item path
}

// helperMap ranges over a map.
func helperMap(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// helperCapture builds a closure over its local.
func helperCapture() func() int {
	n := 0
	return func() int { n++; return n }
}

//p8:hotpath
func hotChain(x int) string {
	_ = helperClean(x)
	return helperMid(x) // want `hot call chain deep\.hotChain → deep\.helperMid → deep\.helperFmt: deep\.helperFmt calls fmt\.Sprintf`
}

//p8:hotpath
func hotAllowedLeaf() int64 {
	return helperClockAllowed() // clean: the leaf line is waived with //p8:allow hotpath
}

//p8:hotpath
func hotMap(m map[int]int) int {
	return helperMap(m) // want `deep\.helperMap ranges over a map`
}

//p8:hotpath
func hotCapture() {
	_ = helperCapture() // want `deep\.helperCapture builds a closure capturing "n"`
}

//p8:hotpath
func hotDynamic(f func() int) int {
	return f() // want `calls through a function value`
}

//p8:hotpath
func hotWaived(x int) string {
	return helperMid(x) //p8:allow hotpath: formatting here is once per run, measured harmless
}

// Sink dispatches Emit through an interface; the closure must cover
// every satisfying method in the load set.
type Sink interface{ Emit(int) }

// loudSink allocates on Emit.
type loudSink struct{}

// Emit prints, which a hot closure may not.
func (loudSink) Emit(x int) { fmt.Println(x) }

// quietSink accumulates without allocating.
type quietSink struct{ total int }

// Emit adds.
func (q *quietSink) Emit(x int) { q.total += x }

//p8:hotpath
func hotIface(s Sink, x int) {
	s.Emit(x) // want `deep\.loudSink\.Emit calls fmt\.Println`
}

// notHot calls the same helpers with no directive; nothing fires.
func notHot(x int, m map[int]int) string {
	_ = helperMap(m)
	return helperMid(x)
}
