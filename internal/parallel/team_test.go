package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestTeamParallelForCoversRange: every index in [0, n) is visited
// exactly once, for assorted team sizes, range lengths and grains.
func TestTeamParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		team := NewTeam(workers)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{0, 1, 3, 1000} {
				visits := make([]int32, n)
				team.ParallelFor(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times",
							workers, n, grain, i, v)
					}
				}
			}
		}
		team.Close()
	}
}

// TestTeamReuseAcrossCalls: the same team runs many loops back to back
// with correct results — the steady-state pattern of the kernels.
func TestTeamReuseAcrossCalls(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var total atomic.Int64
	const calls, n = 200, 512
	for c := 0; c < calls; c++ {
		team.ParallelFor(n, 7, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
	}
	if got := total.Load(); got != calls*n {
		t.Fatalf("covered %d indices over %d calls, want %d", got, calls, calls*n)
	}
}

// TestTeamWorkerIndexBounds: the worker index handed to the body is
// always within [0, Workers()), and two chunks with the same index
// never run concurrently.
func TestTeamWorkerIndexBounds(t *testing.T) {
	const workers = 4
	team := NewTeam(workers)
	defer team.Close()
	var active [workers]atomic.Int32
	team.ParallelForWorker(1000, 1, func(w, lo, hi int) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of range", w)
			return
		}
		if active[w].Add(1) != 1 {
			t.Errorf("worker %d ran two chunks concurrently", w)
		}
		active[w].Add(-1)
	})
}

// TestTeamStaticForDeterministicPartition: static ranges depend only on
// (n, workers) and cover the range disjointly.
func TestTeamStaticForDeterministicPartition(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	const n = 100
	first := make(map[int][2]int)
	for rep := 0; rep < 5; rep++ {
		var mu sync.Mutex
		got := make(map[int][2]int)
		covered := make([]int, n)
		team.StaticFor(n, func(w, lo, hi int) {
			mu.Lock()
			got[w] = [2]int{lo, hi}
			mu.Unlock()
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("rep %d: index %d covered %d times", rep, i, c)
			}
		}
		if rep == 0 {
			first = got
			continue
		}
		for w, r := range got {
			if first[w] != r {
				t.Fatalf("rep %d: worker %d range %v, first run had %v", rep, w, r, first[w])
			}
		}
	}
}

// TestTeamStaticRanges: caller-supplied bounds run part p on worker p.
func TestTeamStaticRanges(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	bounds := []int{0, 10, 10, 35, 50} // part 1 is empty
	var mu sync.Mutex
	got := map[int][2]int{}
	team.StaticRanges(bounds, func(p, lo, hi int) {
		mu.Lock()
		got[p] = [2]int{lo, hi}
		mu.Unlock()
	})
	want := map[int][2]int{0: {0, 10}, 2: {10, 35}, 3: {35, 50}}
	if len(got) != len(want) {
		t.Fatalf("ran parts %v, want %v", got, want)
	}
	for p, r := range want {
		if got[p] != r {
			t.Errorf("part %d ran %v, want %v", p, got[p], r)
		}
	}
}

// TestTeamStaticRangesTooManyParts: more parts than workers is a
// programming error.
func TestTeamStaticRangesTooManyParts(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	defer func() {
		if recover() == nil {
			t.Error("3 parts on a 2-worker team did not panic")
		}
	}()
	team.StaticRanges([]int{0, 1, 2, 3}, func(_, _, _ int) {})
}

// TestTeamConcurrentMisusePanics: a Team runs one loop at a time;
// overlapping ParallelFor calls panic rather than corrupt the shared
// job state.
func TestTeamConcurrentMisusePanics(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	inBody := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		team.ParallelFor(2, 1, func(lo, hi int) {
			once.Do(func() { close(inBody) })
			<-release
		})
	}()
	<-inBody
	func() {
		defer func() {
			if recover() == nil {
				t.Error("concurrent ParallelFor did not panic")
			}
			close(release)
		}()
		team.ParallelFor(2, 1, func(lo, hi int) {})
	}()
	<-done
}

// TestTeamUseAfterClosePanics: a closed team rejects new loops.
func TestTeamUseAfterClosePanics(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	team.Close() // double close is a no-op
	defer func() {
		if recover() == nil {
			t.Error("loop on a closed team did not panic")
		}
	}()
	team.ParallelFor(10, 1, func(lo, hi int) {})
}

// TestTeamZeroSpawnSteadyState: after the first call, further loops on
// a team start no goroutines.
func TestTeamZeroSpawnSteadyState(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var sink atomic.Int64
	body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	team.ParallelFor(1024, 16, body) // warmup: workers already exist
	before := runtime.NumGoroutine()
	for c := 0; c < 100; c++ {
		team.ParallelFor(1024, 16, body)
	}
	after := runtime.NumGoroutine()
	if after > before {
		t.Errorf("goroutine count grew from %d to %d across steady-state loops", before, after)
	}
}

// TestTeamSteadyStateAllocs: a dispatch reuses the team's job
// descriptor; only the tiny body-wrapper closure allocates.
func TestTeamSteadyStateAllocs(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var sink atomic.Int64
	body := func(_, lo, hi int) { sink.Add(int64(hi - lo)) }
	team.ParallelForWorker(1024, 16, body)
	allocs := testing.AllocsPerRun(50, func() {
		team.ParallelForWorker(1024, 16, body)
	})
	if allocs > 2 {
		t.Errorf("steady-state ParallelForWorker allocates %.1f objects per call, want <= 2", allocs)
	}
}

// TestSharedForConcurrentCallers: the package-level helpers serialize
// overlapping loops on the shared team instead of panicking — the
// pattern the parallel experiment harness produces. Run with -race.
func TestSharedForConcurrentCallers(t *testing.T) {
	const callers = 8
	var wg sync.WaitGroup
	var total atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				For(4, 256, 8, func(lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != callers*20*256 {
		t.Fatalf("covered %d indices, want %d", got, callers*20*256)
	}
}

// TestWorkersResolution: positive threads pass through; the default is
// GOMAXPROCS unless overridden.
func TestWorkersResolution(t *testing.T) {
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefaultWorkers(3)
	if got := Workers(0); got != 3 {
		t.Errorf("Workers(0) = %d after SetDefaultWorkers(3)", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d with default override", got)
	}
	SetDefaultWorkers(0)
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d after reset", got)
	}
}

// TestScheduleString covers the Stringer.
func TestScheduleString(t *testing.T) {
	if Dynamic.String() != "dynamic" || Static.String() != "static" {
		t.Errorf("Schedule strings: %v %v", Dynamic, Static)
	}
}

// TestNewTeamPanics rejects non-positive sizes.
func TestNewTeamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTeam(0) did not panic")
		}
	}()
	NewTeam(0)
}

// TestAutoGrainBounds: the automatic grain is always positive and never
// larger than needed to give each worker several chunks.
func TestAutoGrainBounds(t *testing.T) {
	for _, n := range []int{1, 10, 1000, 1 << 20} {
		for _, w := range []int{1, 4, 64} {
			g := autoGrain(n, w)
			if g < 1 {
				t.Fatalf("autoGrain(%d, %d) = %d", n, w, g)
			}
		}
	}
	if g := autoGrain(1000, 5); g != 25 {
		t.Errorf("autoGrain(1000, 5) = %d, want 25 (8 chunks per worker)", g)
	}
}
