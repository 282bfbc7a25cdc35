// Package machine is a golden stand-in defining the frozen Machine
// type. Inside the defining package writes are legal while a
// constructor owns initialization; everything else must not write.
package machine

// Latency holds per-level latencies.
type Latency struct{ LocalDRAMNs float64 }

// Spec describes a machine configuration.
type Spec struct{ Latency Latency }

// Machine is read-only after construction.
type Machine struct {
	Spec    *Spec
	Seq     int
	Sockets int
	ncores  int
}

// New is a constructor: its writes, direct and through helpers, are
// construction-time and clean.
func New(s *Spec) *Machine {
	m := &Machine{}
	m.Spec = s
	m.Seq++
	m.Spec.Latency.LocalDRAMNs = 1
	m.Sockets = 2
	fill(m)
	return m
}

// NewTuned reaches calibrate, which is *only* reachable from
// constructors and therefore clean.
func NewTuned() *Machine {
	m := New(&Spec{})
	calibrate(m)
	return m
}

// fill is shared by New (fine) and Retune (not fine); the write is
// reachable post-construction through the latter.
func fill(m *Machine) {
	m.ncores = m.Sockets * 10 // want `write to machine\.Machine reachable after construction: machine\.fill assigns through the Machine and is reached by exported machine\.Retune \(entry chain machine\.Retune → machine\.fill\)`
}

// calibrate is constructor-only; no finding.
func calibrate(m *Machine) {
	m.ncores = 0
}

// Retune is the post-construction entry point that makes fill's write
// illegal.
func Retune(m *Machine) {
	fill(m)
}

// Grow writes directly from an exported method: the entry chain is the
// method itself.
func (m *Machine) Grow() {
	m.Sockets++ // want `write to machine\.Machine reachable after construction: \*machine\.Machine\.Grow assigns through the Machine and is reached by exported \*machine\.Machine\.Grow`
}

// Reseed carries an itemized waiver on the write line; the call-graph
// closure honors it.
func (m *Machine) Reseed() {
	m.Sockets = 0 //p8:allow frozenmachine: test-only reset helper, documented as not concurrency-safe
}
