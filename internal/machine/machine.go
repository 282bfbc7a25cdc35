// Package machine assembles the POWER8 machine model: the arch
// description, the cache/TLB/prefetch simulators, the SMP fabric and the
// memory-bandwidth model, into the two engines the experiments use —
// a trace-driven latency Walker for dependent-load microbenchmarks
// (Figures 2, 6, 7, 8 and the latency columns of Table IV) and analytic
// steady-state bandwidth queries delegated to internal/memsys and
// internal/fabric (Table III, Table IV bandwidth, Figures 3 and 4).
package machine

import (
	"repro/internal/arch"
	"repro/internal/fabric"
	"repro/internal/memsys"
	"repro/internal/units"
)

// Machine is a modelled SMP system. It is read-only after construction:
// Spec, Net and Mem only answer queries, and everything mutable — cache
// state, TLB state, prefetch streams, DES queues — lives in the Walker
// and Sim instances created per run. A single Machine may therefore be
// shared by concurrently running experiments.
type Machine struct {
	Spec *arch.SystemSpec
	Net  *fabric.Network
	Mem  *memsys.Model
}

// New builds a machine with the E870-fitted calibrations. The spec may be
// any POWER8 SystemSpec (arch.E870, arch.MaxPOWER8SMP, or a custom one).
func New(spec *arch.SystemSpec) *Machine {
	return NewWithCalibration(spec, fabric.E870Calibration(), memsys.E870Calibration())
}

// NewWithCalibration builds a machine with explicit calibration profiles.
func NewWithCalibration(spec *arch.SystemSpec, fc fabric.Calibration, mc memsys.Calibration) *Machine {
	return NewDegraded(spec, fc, mc, nil, nil)
}

// NewDegraded builds a machine carrying RAS degradation overlays: fd
// derates fabric links (lane sparing), md derates memory channels and
// Centaur links. Either may be nil. The spec's own Guard map (guarded
// cores) and latency adders are expected to already be part of spec —
// degraded machines are derived by internal/fault through this
// constructor, never by mutating a built Machine, so a degraded and a
// healthy Machine coexist safely in one process.
func NewDegraded(spec *arch.SystemSpec, fc fabric.Calibration, mc memsys.Calibration, fd *fabric.Degradation, md *memsys.Degradation) *Machine {
	if err := spec.Guard.Validate(spec); err != nil {
		panic(err)
	}
	return &Machine{
		Spec: spec,
		Net:  fabric.NewDegraded(spec.Topology, spec.Latency, fc, fd),
		Mem:  memsys.NewDegraded(spec, mc, md),
	}
}

// DemandLatencyNs returns the dependent-load latency of a DRAM access
// issued by a core on chip `from` to memory homed on chip `home`, without
// prefetching and excluding translation penalties: the local DRAM latency
// plus the SMP hop cost (the Table IV "w/o prefetching" column).
func (m *Machine) DemandLatencyNs(from, home arch.ChipID) float64 {
	return m.Spec.Latency.LocalDRAMNs + m.Net.HopLatencyNs(from, home)
}

// PrefetchedLatencyNs returns the steady-state observed latency of a
// fully-ramped sequential stream from memory homed on chip `home` (the
// Table IV "w/ prefetching" column): the residual fraction of the demand
// latency, floored at the per-line transfer-and-detect cost.
func (m *Machine) PrefetchedLatencyNs(from, home arch.ChipID) float64 {
	lat := &m.Spec.Latency
	v := lat.PrefetchResidue * m.DemandLatencyNs(from, home)
	if v < lat.MinPrefetchedNs {
		v = lat.MinPrefetchedNs
	}
	return v
}

// InterleavedLatencyNs returns the average demand latency for memory
// interleaved across every chip (Table IV row "Chip0 <-> interleaved").
func (m *Machine) InterleavedLatencyNs(from arch.ChipID) float64 {
	var sum float64
	chips := m.Spec.Topology.Chips
	for c := 0; c < chips; c++ {
		sum += m.DemandLatencyNs(from, arch.ChipID(c))
	}
	return sum / float64(chips)
}

// RandomAccessBandwidth returns the system random-read bandwidth when
// every core runs `threads` threads each chasing `streams` independent
// lists (Figure 4). Outstanding requests per core are limited by the
// load-miss queue.
func (m *Machine) RandomAccessBandwidth(threads, streams int) units.Bandwidth {
	perCore := threads * streams
	if perCore > m.Spec.Chip.LoadMissQueue {
		perCore = m.Spec.Chip.LoadMissQueue
	}
	total := perCore * m.Spec.TotalCores()
	return m.Mem.RandomAccess(total)
}
