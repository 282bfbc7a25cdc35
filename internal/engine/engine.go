// Package engine is a small discrete-event simulation kernel: a simulated
// clock, a time-ordered event queue, and FIFO-queued resources with finite
// service capacity. The machine model uses it for experiments where
// concurrency and queueing matter — random-access bandwidth with limited
// load-miss queues (Figure 4) and link contention — while pure dependent-
// load latency walks (Figure 2) do not need it.
//
// The event queue is a delay-class calendar (calendar.go): the models
// schedule every event at now + d for a handful of distinct delays d, so
// the queue keeps one sorted FIFO per delay class, picks the next event
// with a winner tree over the class heads, and spills the rare
// one-off delays into a typed 4-ary min-heap. Events are stored unboxed
// in flat slices, so a push allocates nothing beyond amortized growth.
// A ShardedSim (shard.go) runs all the lanes of one shard on one shared
// calendar; each queued event carries the lane it executes on.
package engine

import "fmt"

// Time is simulated time in nanoseconds.
type Time float64

// Event is a callback scheduled at a point in simulated time.
type Event func(s *Sim)

type scheduled struct {
	at   Time
	seq  uint64 // tie-break so same-time events run in schedule order
	call Event
	// release, when non-nil, is a resource whose server this event frees
	// before call runs. Keeping it a typed field instead of wrapping the
	// release in a closure saves one heap allocation per service — the
	// dominant allocation of a queueing-heavy simulation.
	release *Resource
	// lane is the Sim the event runs on: the one it was scheduled on, or
	// the receiving lane of a cross-lane message.
	lane *Sim
}

// before orders the queue: earliest time first, schedule order on ties.
func (a scheduled) before(b scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of scheduled events in a flat slice:
// the children of node i are nodes 4i+1 .. 4i+4. The calendar spills
// the events of delays without a class into it.
type eventQueue []scheduled

// push inserts one event, sifting it up to heap position.
//
//p8:hotpath
func (q *eventQueue) push(ev scheduled) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*q = h
}

// pop removes and returns the minimum. The queue must be non-empty.
//
//p8:hotpath
func (q *eventQueue) pop() scheduled {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = scheduled{} // release the Event closure for GC
	h = h[:last]
	*q = h

	// Sift the displaced tail element down to its place.
	i := 0
	for {
		first := 4*i + 1
		if first >= last {
			break
		}
		min := first
		end := first + 4
		if end > last {
			end = last
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// Sim is a discrete-event simulation instance. The zero value is ready to
// use.
//
// The simulator keeps its own observability counters as plain fields —
// it is single-goroutine by construction, so they cost one ALU op each —
// and PublishStats flushes them into an obs registry at run boundaries.
// This is the flush-at-the-end idiom documented in internal/obs: the
// event dispatch loop itself carries no instrumentation overhead.
type Sim struct {
	now Time
	seq uint64
	// q is the calendar this Sim's events are queued in: its own,
	// created on first use, or the shared calendar of the ShardedSim
	// shard the Sim is a lane of.
	q *calendar
	// pending counts this Sim's events in q, whose high-water mark is
	// maxQueue.
	pending  int
	events   uint64
	maxQueue int
	// budget, when non-nil, is charged one unit per executed event and
	// panics with a Trip when exhausted or cancelled (the harness's
	// watchdog against runaway simulations). Nil costs one branch.
	budget *Budget
}

// SetBudget attaches a watchdog budget; every executed event charges
// one unit. A nil budget (the default) is unlimited.
func (s *Sim) SetBudget(b *Budget) { s.budget = b }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Events returns the number of events executed so far.
func (s *Sim) Events() uint64 { return s.events }

// Scheduled returns the number of events scheduled so far (including
// resource service completions).
func (s *Sim) Scheduled() uint64 { return s.seq }

// MaxQueueDepth returns the event queue's high-water mark: the largest
// number of pending events observed at once.
func (s *Sim) MaxQueueDepth() int { return s.maxQueue }

// At schedules ev at absolute time t, which must not be in the past.
// It is meant for initial conditions and one-off times: the event has
// no delay class and waits in the calendar's spill heap.
func (s *Sim) At(t Time, ev Event) { s.at(t, absolute, ev) }

// After schedules ev delay nanoseconds from now; negative delays panic.
func (s *Sim) After(delay Time, ev Event) { s.at(s.now+delay, delay, ev) }

// at schedules ev at t = now + delay; the delay picks its calendar class.
func (s *Sim) at(t, delay Time, ev Event) {
	if t < s.now {
		panic(fmt.Sprintf("engine: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	s.enqueue(scheduled{at: t, seq: s.seq, call: ev}, delay, 0)
}

// enqueue queues ev to run on s in the calendar class of (delay, src)
// and books it against the Sim's queue-depth high-water mark. src is 0
// for the Sim's own events (see calendar for mail).
//
//p8:hotpath
func (s *Sim) enqueue(ev scheduled, delay Time, src int) {
	if s.q == nil {
		s.q = newCalendar()
	}
	ev.lane = s
	s.q.push(ev, delay, src)
	s.pending++
	if s.pending > s.maxQueue {
		s.maxQueue = s.pending
	}
}

// Step executes the next event. It reports false when the queue is empty.
// A budget trip refuses the event: it stays queued and uncounted.
func (s *Sim) Step() bool {
	if s.q == nil || s.q.n == 0 {
		return false
	}
	s.budget.Charge(1)
	s.q.exec()
	return true
}

// dispatch runs one popped event: the resource release protocol first,
// then the scheduled callback.
//
//p8:hotpath
func (s *Sim) dispatch(ev scheduled) {
	if ev.release != nil {
		ev.release.release(s)
	}
	if ev.call != nil {
		ev.call(s) //p8:allow hotpath: the scheduled callback is the DES's payload — event dispatch is necessarily indirect; hot callbacks carry their own annotations
	}
}

// Run executes events until the queue drains or until simulated time
// exceeds horizon (0 means no horizon). It returns the number of events
// executed by this call; a budget trip leaves the refused event queued,
// so Events() plus the pending events always equals Scheduled().
// Event-loop throughput and its allocation budget are pinned by
// BenchmarkSchedule* and BenchmarkSimPointerChase in
// engine_bench_test.go.
//
//p8:hotpath
func (s *Sim) Run(horizon Time) uint64 {
	if s.q == nil {
		return 0
	}
	return s.q.run(horizon, s.budget)
}

// Resource is a service station with a fixed number of servers and an
// unbounded FIFO queue, e.g. a memory channel or an SMP link direction.
// Acquire requests service for a given holding time; done runs when the
// service completes.
type Resource struct {
	Name    string
	servers int
	busy    int
	// waiting[head:] are the queued requests. Dequeuing advances head
	// instead of reslicing so the backing array is reused across the
	// whole simulation; the slice rewinds to its start whenever the
	// queue drains.
	waiting []pending
	head    int
	// BusyTime accumulates server-occupancy (ns x servers) for utilization
	// accounting.
	BusyTime float64
}

type pending struct {
	hold Time
	done Event
}

// NewResource returns a resource with the given number of servers (> 0).
func NewResource(name string, servers int) *Resource {
	if servers <= 0 {
		panic("engine: resource needs at least one server")
	}
	return &Resource{Name: name, servers: servers}
}

// Acquire requests one server for hold nanoseconds; when service finishes,
// done is scheduled (it may be nil). Requests queue FIFO when all servers
// are busy.
//
//p8:hotpath
func (r *Resource) Acquire(s *Sim, hold Time, done Event) {
	if hold < 0 {
		panic("engine: negative hold time")
	}
	if r.busy < r.servers {
		r.start(s, hold, done)
		return
	}
	r.waiting = append(r.waiting, pending{hold: hold, done: done})
}

// dequeue removes and returns the oldest waiting request; ok is false
// when the queue is empty.
//
//p8:hotpath
func (r *Resource) dequeue() (pending, bool) {
	if r.head == len(r.waiting) {
		return pending{}, false
	}
	next := r.waiting[r.head]
	r.waiting[r.head] = pending{} // release the done closure
	r.head++
	if r.head == len(r.waiting) {
		r.waiting = r.waiting[:0]
		r.head = 0
	}
	return next, true
}

// start occupies one server and books its completion event.
//
//p8:hotpath
func (r *Resource) start(s *Sim, hold Time, done Event) {
	r.busy++
	r.BusyTime += float64(hold)
	s.seq++
	s.enqueue(scheduled{at: s.now + hold, seq: s.seq, call: done, release: r}, hold, 0)
}

// release frees one server and starts the oldest waiting request, if any.
// It runs from the event dispatch loop when a service completes.
//
//p8:hotpath
func (r *Resource) release(s *Sim) {
	r.busy--
	if next, ok := r.dequeue(); ok {
		r.start(s, next.hold, next.done)
	}
}

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return len(r.waiting) - r.head }

// Busy returns the number of occupied servers.
func (r *Resource) Busy() int { return r.busy }

// Utilization returns the mean server occupancy over [0, now] as a
// fraction of capacity; it returns 0 at time zero.
func (r *Resource) Utilization(s *Sim) float64 {
	if s.now == 0 {
		return 0
	}
	return r.BusyTime / (float64(s.now) * float64(r.servers))
}
