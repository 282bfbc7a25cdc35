package machine

import (
	"testing"

	"repro/internal/stats"
)

// TestDESMatchesAnalyticModel cross-validates the two random-access
// engines: the discrete-event queueing simulation and the analytic
// Little's-law model must agree on the Figure 4 sweep within 25% at
// every point, and tightly at saturation.
func TestDESMatchesAnalyticModel(t *testing.T) {
	m := e870()
	const horizon = 200_000 // ns
	for _, p := range []struct{ threads, streams int }{
		{1, 1}, {1, 4}, {2, 2}, {4, 2}, {4, 8}, {8, 4}, {8, 8},
	} {
		des := m.SimulateRandomAccess(p.threads, p.streams, horizon, nil).GBps()
		analytic := m.RandomAccessBandwidth(p.threads, p.streams).GBps()
		if !stats.Within(des, analytic, 0.25) {
			t.Errorf("threads=%d streams=%d: DES %.0f GB/s vs analytic %.0f GB/s",
				p.threads, p.streams, des, analytic)
		}
	}
	// At saturation both engines must sit at the calibrated ceiling.
	des := m.SimulateRandomAccess(8, 8, horizon, nil).GBps()
	if !stats.Within(des, 500, 0.06) {
		t.Errorf("DES saturation = %.0f GB/s, want ~500", des)
	}
}

// TestDESMonotone: bandwidth is non-decreasing in concurrency.
func TestDESMonotone(t *testing.T) {
	m := e870()
	prev := 0.0
	for _, streams := range []int{1, 2, 4, 8} {
		got := m.SimulateRandomAccess(4, streams, 100_000, nil).GBps()
		if got+1 < prev {
			t.Errorf("DES bandwidth fell at %d streams: %.0f after %.0f", streams, got, prev)
		}
		prev = got
	}
}

func TestDESPanics(t *testing.T) {
	m := e870()
	for _, fn := range []func(){
		func() { m.SimulateRandomAccess(0, 1, 100, nil) },
		func() { m.SimulateRandomAccess(1, 0, 100, nil) },
		func() { m.SimulateRandomAccess(1, 1, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
