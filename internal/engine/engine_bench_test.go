package engine

import (
	"container/heap"
	"math/rand"
	"testing"
)

// BenchmarkSchedule measures raw push+pop throughput of the event queue
// under a randomized arrival pattern: 4096 events at absolute times,
// all of which go through the calendar's spill heap. The event loop it
// pins (the calendar's push/pop, Sim.Run/dispatch, the Resource service
// protocol) carries //p8:hotpath directives, so p8lint holds its
// zero-allocation budget statically.
func BenchmarkSchedule(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	times := make([]Time, 4096)
	for i := range times {
		times[i] = Time(r.Float64() * 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := newCalendar()
		for j, t := range times {
			q.push(scheduled{at: t, seq: uint64(j)}, absolute, 0)
		}
		for q.n > 0 {
			q.pop()
		}
	}
}

// desDelays are the delays the socket-resolved Figure 4 model
// schedules with on the E870 and the 16-socket SMP: bank service,
// transit and the fabric's hop latencies (ns).
var desDelays = []Time{50, 80, 28, 30, 38, 118, 140, 142, 148}

// BenchmarkScheduleDelayClasses is the calendar's designed case: a
// steady 4096-event population in which every pop schedules its
// successor at now + d for one of the DES's fixed delays.
func BenchmarkScheduleDelayClasses(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	picks := make([]Time, 4*4096)
	for i := range picks {
		picks[i] = desDelays[r.Intn(len(desDelays))]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := newCalendar()
		seq := uint64(0)
		for j := 0; j < 4096; j++ {
			seq++
			q.push(scheduled{at: Time(j) / 64, seq: seq}, absolute, 0)
		}
		for _, d := range picks {
			ev := q.pop()
			seq++
			q.push(scheduled{at: ev.at + d, seq: seq}, d, 0)
		}
		for q.n > 0 {
			q.pop()
		}
	}
}

// BenchmarkScheduleContainerHeap is the original baseline: the
// BenchmarkSchedule workload through container/heap with interface{}
// boxing.
func BenchmarkScheduleContainerHeap(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	times := make([]Time, 4096)
	for i := range times {
		times[i] = Time(r.Float64() * 1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var q refQueue
		for _, t := range times {
			heap.Push(&q, scheduled{at: t})
		}
		for q.Len() > 0 {
			heap.Pop(&q)
		}
	}
}

// BenchmarkSimPointerChase runs a closed-loop pointer-chaser workload —
// the structure of machine.SimulateRandomAccess — through the full Sim +
// Resource stack.
func BenchmarkSimPointerChase(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s Sim
		banks := make([]*Resource, 64)
		for j := range banks {
			banks[j] = NewResource("bank", 1)
		}
		r := rand.New(rand.NewSource(2))
		var issue, complete Event
		issue = func(sim *Sim) {
			banks[r.Intn(len(banks))].Acquire(sim, 50, complete)
		}
		complete = func(sim *Sim) { sim.After(45, issue) }
		for c := 0; c < 256; c++ {
			s.At(Time(c), issue)
		}
		s.Run(100_000)
	}
}
