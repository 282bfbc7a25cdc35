// Package memo is a content-addressed byte cache: a byte-budgeted
// in-memory LRU with singleflight deduplication and an optional
// on-disk store, keyed by internal/canon fingerprints. Values are
// serialized results ([]byte); a value's cost is its length. It is the
// substrate that turns this repository's determinism contract into
// speed: every engine result is a pure function of fingerprinted
// inputs, so equal keys mean a recomputation can be skipped (warm
// runs) or shared (concurrent identical requests compute once).
//
// Three behaviours matter to correctness:
//
//   - Singleflight: concurrent Do calls with the same key run one
//     compute; the rest wait and share the result. Two services (or
//     two p8d jobs) racing on the same cold report run the experiment
//     once.
//
//   - Non-storable results never enter the cache and never satisfy
//     waiters: a compute that reports store=false (a FAILED report, a
//     watchdog trip, a cancellation) returns its value to its own
//     caller only, and every waiter retries with its own compute. A
//     cancelled run therefore cannot poison the group — the other
//     requests redo the work under their own budgets.
//
//   - A compute that panics is detached before the panic propagates:
//     the inflight slot is removed and waiters retry. Panic isolation
//     stays where it belongs (the harness's safeRun wrapper); the
//     cache merely guarantees no goroutine blocks forever on a dead
//     leader.
//
// All methods are safe for concurrent use. Instrumentation lands in an
// obs scope when one is provided: hits, misses, stores, evictions,
// singleflight waits, current bytes/entries, and disk read/write
// timings for the on-disk store.
package memo

import (
	"sync"

	"repro/internal/canon"
	"repro/internal/obs"
)

// Cache is a byte-budgeted LRU keyed by canonical fingerprints. Use
// New; the zero value is not ready.
type Cache struct {
	name     string
	maxBytes int64
	scope    *obs.Registry // nil = uninstrumented (obs methods no-op on nil)
	disk     *diskStore    // nil = memory only

	mu       sync.Mutex
	entries  map[canon.Fingerprint]*entry
	inflight map[canon.Fingerprint]*flight
	bytes    int64
	// head is most recently used, tail least; sentinel-free list.
	head, tail *entry
}

type entry struct {
	key        canon.Fingerprint
	val        []byte
	cost       int64
	prev, next *entry
}

// flight is one in-progress compute plus everyone waiting on it.
type flight struct {
	done chan struct{} // closed when the leader finishes or panics
	val  []byte
	err  error
	// ok marks a completed, storable result waiters may consume;
	// false after a panic or a non-storable result, sending waiters
	// back to compute for themselves.
	ok bool
}

// New builds a cache. maxBytes bounds the in-memory LRU (<= 0 means
// unbounded); reg, when non-nil, receives counters under a
// "memo/<name>" scope.
func New(name string, maxBytes int64, reg *obs.Registry) *Cache {
	var scope *obs.Registry
	if reg != nil {
		scope = reg.Child("memo").Child(name)
	}
	return &Cache{
		name:     name,
		maxBytes: maxBytes,
		scope:    scope,
		entries:  map[canon.Fingerprint]*entry{},
		inflight: map[canon.Fingerprint]*flight{},
	}
}

// Name returns the cache's instrumentation name.
func (c *Cache) Name() string { return c.name }

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the resident cost total.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Do returns the bytes for key: from the memory LRU, else from the
// on-disk store (when enabled), else by running compute — once across
// all concurrent callers of the same key. compute returns the bytes,
// whether they may be stored, and an error. FAILED, tripped or
// cancelled computations must report store=false: the bytes go back to
// this caller only, are never cached or written to disk, and waiting
// duplicates recompute. A disk hit is promoted into the LRU; a
// storable computed result is written back to disk. The disk is
// best-effort — read and write failures count in the stats and fall
// through to compute.
//
// check, when non-nil, validates bytes read from disk before they are
// trusted: a corrupted or truncated entry (the store is plain files;
// anything can happen to them) counts as a disk error, is deleted so
// it cannot shadow the recomputation forever, and falls through to
// compute. In-memory and just-computed bytes are not re-checked — the
// process that produced them validated them by construction.
//
// The second return is true when the LRU or another caller's in-flight
// fill supplied the bytes; a disk read or a compute by this caller
// returns false. Errors are returned to every caller of the
// generation that computed them; they are never cached.
func (c *Cache) Do(key canon.Fingerprint, check func([]byte) error, compute func() ([]byte, bool, error)) ([]byte, bool, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.touch(e)
			c.mu.Unlock()
			c.scope.Counter("hits").Inc()
			return e.val, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			c.scope.Counter("singleflight_waits").Inc()
			<-f.done
			if f.err != nil {
				return nil, false, f.err
			}
			if f.ok {
				return f.val, true, nil
			}
			// The leader panicked or produced a non-storable result
			// (failed / cancelled); recompute under our own flag.
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		c.scope.Counter("misses").Inc()
		return c.lead(key, f, check, compute)
	}
}

// Get fetches the bytes for key if they are already resident in the
// memory LRU or the on-disk store, without ever computing. A disk hit
// is promoted into the LRU exactly as Do would promote it. The boolean
// is false when the key is simply absent; recovery uses Get to
// re-serve reports for journal-replayed jobs and treats absence as
// "evicted since the previous run". Get deliberately skips the
// singleflight: it never computes, so a duplicate concurrent disk read
// is harmless, and probing must not inject a "not found" error into a
// real compute's flight.
func (c *Cache) Get(key canon.Fingerprint, check func([]byte) error) ([]byte, bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.touch(e)
		c.mu.Unlock()
		c.scope.Counter("hits").Inc()
		return e.val, true
	}
	c.mu.Unlock()
	if data, ok := c.diskRead(key, check); ok {
		c.insert(key, data)
		return data, true
	}
	return nil, false
}

// lead fills one key as its flight leader — disk first, then compute —
// and publishes the outcome. On panic the flight is detached so waiters
// retry, then the panic continues to the caller (the harness's
// isolation wrapper).
func (c *Cache) lead(key canon.Fingerprint, f *flight, check func([]byte) error, compute func() ([]byte, bool, error)) ([]byte, bool, error) {
	finished := false
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		if !finished {
			close(f.done) // panic path: f.ok stays false, waiters retry
		}
	}()

	data, store, err := c.fill(key, check, compute)
	finished = true
	f.val, f.err = data, err
	f.ok = err == nil && store
	if f.ok {
		c.insert(key, data)
	}
	close(f.done)
	return data, false, err
}

// fill produces a missing key's bytes: a validated disk entry when one
// exists, else compute's result, written back to disk when storable.
func (c *Cache) fill(key canon.Fingerprint, check func([]byte) error, compute func() ([]byte, bool, error)) ([]byte, bool, error) {
	if data, ok := c.diskRead(key, check); ok {
		return data, true, nil
	}
	data, store, err := compute()
	if err != nil {
		return nil, false, err
	}
	if store {
		c.diskWrite(key, data)
	}
	return data, store, nil
}

// insert stores a value, charging its length (an empty value is
// charged one byte), and evicts from the LRU tail until the budget
// holds. A value costlier than the whole budget is not stored at all —
// evicting the entire cache to hold one entry would thrash.
func (c *Cache) insert(key canon.Fingerprint, val []byte) {
	cost := max(int64(len(val)), 1)
	if c.maxBytes > 0 && cost > c.maxBytes {
		c.scope.Counter("oversize_skips").Inc()
		return
	}
	c.mu.Lock()
	if old, ok := c.entries[key]; ok {
		// A racing leader of the same key already stored an identical
		// result (keys are content addresses); keep the resident one.
		c.touch(old)
		c.mu.Unlock()
		return
	}
	e := &entry{key: key, val: val, cost: cost}
	c.entries[key] = e
	c.pushFront(e)
	c.bytes += cost
	evicted := 0
	for c.maxBytes > 0 && c.bytes > c.maxBytes && c.tail != nil && c.tail != e {
		evicted++
		c.evict(c.tail)
	}
	bytes, entries := c.bytes, len(c.entries)
	c.mu.Unlock()
	c.scope.Counter("stores").Inc()
	c.scope.Counter("evictions").Add(uint64(evicted))
	c.scope.Gauge("bytes").Set(bytes)
	c.scope.Gauge("entries").Set(int64(entries))
}

// touch moves an entry to the front (most recently used). Callers hold
// c.mu.
func (c *Cache) touch(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// evict removes an entry. Callers hold c.mu.
func (c *Cache) evict(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.bytes -= e.cost
}
