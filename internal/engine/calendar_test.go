package engine

// Property tests for the delay-class calendar: under every push pattern
// the drivers produce, it must pop in exactly the order of the 4-ary
// eventQueue heap, the oracle it replaced as the event queue.

import (
	"math/rand"
	"testing"
)

// calendarCase is one randomized push pattern.
type calendarCase struct {
	name string
	// delays is how many distinct delays the pushes draw from; more
	// than calClasses exercises the spill heap.
	delays int
	// lanes is how many lanes stamp the sequence keys: exact-time ties
	// between lanes then order by the lane bits.
	lanes int
	// srcs is how many push streams there are: src 0 pushes at now + d
	// like a local schedule; src > 0 stands for mail drained at a
	// barrier, stamped anywhere in [now, now + d], so it lands behind
	// entries of its class.
	srcs int
	// coarse draws integer delays from a small range, so many pushes
	// share an exact time.
	coarse bool
}

func TestCalendarMatchesHeapOracle(t *testing.T) {
	cases := []calendarCase{
		{name: "repeated delays", delays: 9, lanes: 1, srcs: 1},
		{name: "cross-lane ties", delays: 4, lanes: 8, srcs: 1, coarse: true},
		{name: "out-of-order mail", delays: 7, lanes: 4, srcs: 3, coarse: true},
		{name: "spill", delays: 3 * calClasses, lanes: 4, srcs: 2},
		{name: "spill with ties", delays: 2 * calClasses, lanes: 16, srcs: 4, coarse: true},
	}
	for ci, tc := range cases {
		for trial := 0; trial < 20; trial++ {
			r := rand.New(rand.NewSource(int64(1000*ci + trial)))
			checkCalendarAgainstOracle(t, tc, trial, r)
		}
	}
}

func checkCalendarAgainstOracle(t *testing.T, tc calendarCase, trial int, r *rand.Rand) {
	t.Helper()
	delays := make([]Time, tc.delays)
	for i := range delays {
		if tc.coarse {
			delays[i] = Time(1 + r.Intn(3*tc.delays))
		} else {
			delays[i] = Time(1 + r.Float64()*200)
		}
	}
	c := newCalendar()
	var oracle eventQueue
	counters := make([]uint64, tc.lanes)
	var now Time
	pops := 0
	check := func(phase string) {
		if c.n != len(oracle) {
			t.Fatalf("%s trial %d %s: calendar holds %d events, oracle %d", tc.name, trial, phase, c.n, len(oracle))
		}
		if c.headTime() != oracle[0].at {
			t.Fatalf("%s trial %d %s: head time %v, oracle %v", tc.name, trial, phase, c.headTime(), oracle[0].at)
		}
		got, want := c.pop(), oracle.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("%s trial %d %s pop %d: got (at=%v seq=%#x), oracle (at=%v seq=%#x)",
				tc.name, trial, phase, pops, got.at, got.seq, want.at, want.seq)
		}
		if got.at < now {
			t.Fatalf("%s trial %d: time went backwards: %v after %v", tc.name, trial, got.at, now)
		}
		now = got.at
		pops++
	}
	const steps = 3000
	for step := 0; step < steps; step++ {
		// Pushes outnumber pops early, then the queue drains while
		// pushes continue, the way a simulation runs to its horizon.
		push := c.n == 0 || (step < steps*3/4 && r.Intn(3) != 0) || r.Intn(4) == 0
		if !push {
			check("interleaved")
			continue
		}
		// A burst of 1-4 pushes at the same instant, as one event
		// scheduling several successors.
		for k := 1 + r.Intn(4); k > 0; k-- {
			lane := r.Intn(tc.lanes)
			counters[lane]++
			d := delays[r.Intn(len(delays))]
			src := r.Intn(tc.srcs)
			at := now + d
			if src > 0 {
				at = now + Time(r.Float64())*d
				if tc.coarse {
					at = now + Time(r.Intn(int(d)+1))
				}
			}
			ev := scheduled{at: at, seq: uint64(lane)<<laneShift | counters[lane]}
			c.push(ev, d, src)
			oracle.push(ev)
		}
	}
	for len(oracle) > 0 {
		check("drain")
	}
	if c.n != 0 {
		t.Fatalf("%s trial %d: calendar retains %d events after the oracle drained", tc.name, trial, c.n)
	}
}

// TestCalendarReclaimsQuietClasses: once every class is keyed, a new
// delay takes over a class that has drained instead of spilling, and a
// delay whose class was taken spills without losing order.
func TestCalendarReclaimsQuietClasses(t *testing.T) {
	c := newCalendar()
	seq := uint64(0)
	push := func(at, d Time) {
		seq++
		c.push(scheduled{at: at, seq: seq}, d, 0)
	}
	for d := 1; d <= calClasses; d++ {
		push(Time(d), Time(d))
	}
	if c.used != calClasses || len(c.spill) != 0 {
		t.Fatalf("keyed %d classes with %d spilled, want %d and 0", c.used, len(c.spill), calClasses)
	}
	push(100, 100) // every class holds an event: spills
	if len(c.spill) != 1 {
		t.Fatalf("spill holds %d events, want 1", len(c.spill))
	}
	if got := c.pop(); got.at != 1 {
		t.Fatalf("popped at=%v, want 1", got.at)
	}
	push(200, 199) // class of delay 1 is empty: reclaimed
	if len(c.spill) != 1 || c.keys[0].delay != 199 {
		t.Fatalf("new delay did not reclaim the drained class: keys[0]=%+v, spill %d", c.keys[0], len(c.spill))
	}
	var last Time
	for c.n > 0 {
		ev := c.pop()
		if ev.at < last {
			t.Fatalf("pop order broken: %v after %v", ev.at, last)
		}
		last = ev.at
	}
	if last != 200 {
		t.Fatalf("last pop at %v, want 200", last)
	}
}
