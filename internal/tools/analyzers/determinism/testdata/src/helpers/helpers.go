// Package helpers holds out-of-scope utilities the deterministic
// golden package calls: some tainted, some clean, one waived.
package helpers

import (
	"math/rand"
	"sort"
	"time"
)

// Stamp reads the wall clock directly.
func Stamp() int64 { return time.Now().UnixNano() }

// Chain reaches Stamp through one more hop.
func Chain() int64 { return Stamp() }

// Roll uses math/rand.
func Roll() int { return rand.Intn(6) }

// Pick leaks map iteration order: the last element ranged wins.
func Pick(m map[string]int) int {
	out := 0
	for _, v := range m {
		out = v
	}
	return out
}

// Sum accumulates commutatively — clean.
func Sum(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// Sorted collects keys then sorts — the sanctioned idiom, clean.
func Sorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StampWaived reads the wall clock on a line the determinism contract
// has already waived; the call-graph closure honors the leaf
// justification.
func StampWaived() int64 {
	return time.Now().UnixNano() //p8:allow determinism: I/O timing provenance, never part of a report body
}
