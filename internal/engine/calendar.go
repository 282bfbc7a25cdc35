package engine

import "math"

// calendar is the event queue behind every Sim and every shard of a
// ShardedSim. It exploits how the models schedule: an event always lands
// at now + d, and d takes a handful of values per machine (bank service,
// transit, one fabric hop latency per socket-pair class). The calendar
// keeps one FIFO per delay class. Because now only moves forward, the
// pushes of one class arrive in (at, seq) order and append at the tail;
// an out-of-order push (an exact-time tie from another lane, a caller
// scheduling at arbitrary times) is insertion-sorted backward past the
// entries it precedes, so every FIFO stays sorted for any input. A
// winner tree over the FIFO heads picks the next event in O(log leaves)
// compares. Events at absolute times (Sim.At: the staggered start
// offsets) and delays beyond the class cap (a shard receiving mail on
// many hop latencies) go to the 4-ary spill heap, whose minimum is one
// more leaf of the tree. Pops
// therefore come out in exactly (at, seq) order, the canonical
// (time, lane, sequence) order of the drivers.
//
// A class is keyed by its delay and by where its entries came from:
// src 0 for the calendar's own pushes, 1+w for mail a sharded run
// drained from worker w's mailboxes. Each of those streams is monotone
// on its own, while two of them with the same delay interleave.
type calendar struct {
	n    int // pending events
	used int // classes [0, used) have been keyed
	keys [calClasses]classKey
	fifo [calClasses]classFIFO
	// spill holds the events of delays that found no free class.
	spill eventQueue
	// tree is the winner tree. tree[calLeaves+i] is leaf i's head key
	// (+Inf, MaxUint64 when empty, so empties lose every match); each
	// internal node tree[1..calLeaves-1] holds a copy of the key that
	// wins its subtree, so the compares on a replay path read no leaf.
	tree [2 * calLeaves]treeKey
}

// treeKey is one winner-tree entry: an (at, seq) key and its leaf.
type treeKey struct {
	at   Time
	seq  uint64
	leaf int
}

const (
	calLeaves  = 16            // winner-tree leaves: the FIFO classes and the spill heap
	calClasses = calLeaves - 1 // FIFO delay classes
	spillLeaf  = calClasses    // the leaf whose head is the spill heap's minimum
)

// minRing is the initial capacity of a class ring and of the spill
// heap: the first growth step skips the small sizes a DES outgrows at
// once.
const minRing = 64

// absolute is the delay of an event scheduled at an absolute time
// rather than after a delay (Sim.At, events moved between calendars):
// it never keys a class, so such events go to the spill heap.
const absolute Time = -1

// classKey identifies one delay class.
type classKey struct {
	delay Time
	src   int
}

// classFIFO is one delay class: a power-of-two ring of events sorted
// by (at, seq) from head to tail.
type classFIFO struct {
	buf  []scheduled
	head int
	n    int
}

func newCalendar() *calendar {
	c := &calendar{}
	for i := 0; i < calLeaves; i++ {
		c.tree[calLeaves+i] = treeKey{at: Time(math.Inf(1)), seq: math.MaxUint64, leaf: i}
	}
	for node := calLeaves - 1; node >= 1; node-- {
		c.tree[node] = c.tree[2*node]
	}
	return c
}

// headTime returns the time of the next event; the calendar must be
// non-empty.
func (c *calendar) headTime() Time { return c.tree[1].at }

// push queues ev in the class of (delay, src), or in the spill heap
// when the delay is absolute or every class is keyed to another delay
// and none is empty.
//
//p8:hotpath
func (c *calendar) push(ev scheduled, delay Time, src int) {
	c.n++
	k := classKey{delay: delay, src: src}
	i := c.class(k)
	if i == spillLeaf {
		if c.spill == nil {
			// Start at a class ring's size: the start offsets of a
			// model land here together.
			c.spill = make(eventQueue, 0, minRing)
		}
		c.spill.push(ev)
	} else {
		c.fifo[i].insert(ev)
	}
	if h := &c.tree[calLeaves+i]; ev.at < h.at || (ev.at == h.at && ev.seq < h.seq) {
		h.at, h.seq = ev.at, ev.seq
		c.improve(i)
	}
}

// improve carries a leaf whose head got earlier up the tree, as far as
// it wins: above the first node another leaf still wins, nothing
// changed.
//
//p8:hotpath
func (c *calendar) improve(leaf int) {
	node := calLeaves + leaf
	w := c.tree[node]
	for node > 1 {
		node >>= 1
		t := &c.tree[node]
		if t.leaf != leaf && (t.at < w.at || (t.at == w.at && t.seq < w.seq)) {
			return
		}
		*t = w
	}
}

// class returns k's class, keying one for it if needed, or spillLeaf.
//
//p8:hotpath
func (c *calendar) class(k classKey) int {
	for i := 0; i < c.used; i++ {
		if c.keys[i] == k {
			return i
		}
	}
	if k.delay == absolute {
		return spillLeaf
	}
	return c.claim(k)
}

// claim keys a class for k: a never-used one, else the first empty one
// (its old delay has gone quiet). It returns spillLeaf when every class
// holds events.
//
//p8:hotpath
func (c *calendar) claim(k classKey) int {
	if c.used < calClasses {
		c.keys[c.used] = k
		c.used++
		return c.used - 1
	}
	for i := range c.fifo {
		if c.fifo[i].n == 0 {
			c.keys[i] = k
			return i
		}
	}
	return spillLeaf
}

// pop removes and returns the (at, seq)-minimal event. The calendar
// must be non-empty.
//
//p8:hotpath
func (c *calendar) pop() scheduled {
	i := c.tree[1].leaf
	c.n--
	var ev scheduled
	at, seq := Time(math.Inf(1)), uint64(math.MaxUint64)
	if i == spillLeaf {
		ev = c.spill.pop()
		if len(c.spill) > 0 {
			at, seq = c.spill[0].at, c.spill[0].seq
		}
	} else {
		f := &c.fifo[i]
		ev = f.pop()
		if f.n > 0 {
			h := &f.buf[f.head]
			at, seq = h.at, h.seq
		}
	}
	h := &c.tree[calLeaves+i]
	h.at, h.seq = at, seq
	c.replay(i)
	return ev
}

// replay recomputes the winners on the path from a leaf whose head
// changed to the root.
//
//p8:hotpath
func (c *calendar) replay(leaf int) {
	node := calLeaves + leaf
	w := c.tree[node]
	for node > 1 {
		if s := &c.tree[node^1]; s.at < w.at || (s.at == w.at && s.seq < w.seq) {
			w = *s
		}
		node >>= 1
		c.tree[node] = w
	}
}

// insert appends ev, moving it backward past any entries it precedes.
//
//p8:hotpath
func (f *classFIFO) insert(ev scheduled) {
	if f.n == len(f.buf) {
		f.grow()
	}
	mask := len(f.buf) - 1
	j := f.n
	for j > 0 {
		prev := &f.buf[(f.head+j-1)&mask]
		if ev.at > prev.at || (ev.at == prev.at && ev.seq >= prev.seq) {
			break
		}
		f.buf[(f.head+j)&mask] = *prev
		j--
	}
	f.buf[(f.head+j)&mask] = ev
	f.n++
}

// grow doubles the ring, unwrapping it to start at index 0.
func (f *classFIFO) grow() {
	size := 2 * len(f.buf)
	if size == 0 {
		size = minRing
	}
	buf := make([]scheduled, size)
	for j := 0; j < f.n; j++ {
		buf[j] = f.buf[(f.head+j)&(len(f.buf)-1)]
	}
	f.buf, f.head = buf, 0
}

// pop removes and returns the head. The FIFO must be non-empty.
//
//p8:hotpath
func (f *classFIFO) pop() scheduled {
	ev := f.buf[f.head]
	f.buf[f.head] = scheduled{} // release the Event closure for GC
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return ev
}

// run executes events until the calendar drains or simulated time
// exceeds horizon (0 means no horizon), charging budget one unit per
// event before popping it. It returns the number of events executed.
//
//p8:hotpath
func (c *calendar) run(horizon Time, budget *Budget) uint64 {
	var n uint64
	for c.n > 0 {
		if horizon > 0 && c.headTime() > horizon {
			break
		}
		budget.Charge(1)
		c.exec()
		n++
	}
	return n
}

// exec pops the next event and runs it on the lane it was queued for.
//
//p8:hotpath
func (c *calendar) exec() {
	ev := c.pop()
	l := ev.lane
	l.now = ev.at
	l.events++
	l.pending--
	l.dispatch(ev)
}
