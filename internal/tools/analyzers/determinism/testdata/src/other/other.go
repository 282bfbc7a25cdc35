// Package other is outside the determinism scope: no rule fires, and
// its calls to tainted helpers are legal.
package other

import (
	"helpers"
	"math/rand"
	"time"
)

// Wall clocks, math/rand and order-dependent map ranges are all fine
// in harness-side packages.
func Free(m map[string]int) string {
	_ = time.Now()
	_ = rand.Intn(4)
	last := ""
	for k := range m {
		last = k
	}
	return last
}

// FreeHelpers may call whatever helpers it likes.
func FreeHelpers() int64 { return helpers.Chain() + int64(helpers.Roll()) }
