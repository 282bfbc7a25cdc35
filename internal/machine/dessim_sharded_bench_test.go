package machine

import (
	"fmt"
	"testing"

	"repro/internal/arch"
)

// The BENCH_6.json workload: the full 512-thread E870 (64 cores x
// SMT8, 4 lists — the Figure 4 peak configuration) against the
// 64-thread (SMT1) run, on the pooled sequential engine and the
// sharded engine at every legal worker count. The sharded numbers are
// what the CI bench-smoke step compares against the sequential
// baseline; real speedups need real CPUs, so BENCH_6.json records the
// host's GOMAXPROCS alongside the medians.
const benchHorizonNs = 50_000

func BenchmarkDESSequential64(b *testing.B) {
	m := e870()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.SimulateRandomAccess(1, 1, benchHorizonNs, nil)
	}
}

func BenchmarkDESSequential512(b *testing.B) {
	m := e870()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.SimulateRandomAccess(8, 4, benchHorizonNs, nil)
	}
}

func BenchmarkDESSharded512(b *testing.B) {
	m := e870()
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.SimulateRandomAccessSharded(8, 4, benchHorizonNs, shards, nil, nil)
			}
		})
	}
}

// BenchmarkDESShardedMaxSMP512 is the same workload on the 16-socket
// maximum SMP, where a shard runs up to 16 lanes: the case that
// exposes any per-event cost growing with the socket count. The name
// matches the CI sharded-DES smoke filter.
func BenchmarkDESShardedMaxSMP512(b *testing.B) {
	m := New(arch.MaxPOWER8SMP())
	for _, shards := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.SimulateRandomAccessSharded(8, 4, benchHorizonNs, shards, nil, nil)
			}
		})
	}
}
