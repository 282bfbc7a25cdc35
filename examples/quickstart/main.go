// Quickstart: build the E870 machine model, ask it the paper's headline
// questions, and regenerate one table end to end.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/memsys"
)

func main() {
	m := power8.NewE870()
	spec := m.Spec

	fmt.Println("== The machine (Table II) ==")
	fmt.Printf("%s: %d cores / %d hardware threads @ %.2f GHz\n",
		spec.Name, spec.TotalCores(), spec.TotalThreads(), spec.Chip.ClockGHz)
	fmt.Printf("peak compute %v, peak memory %v, balance %.2f FLOP/B\n",
		spec.PeakDP(), spec.PeakMemoryBW(), spec.Balance())

	fmt.Println("\n== Ask the model directly ==")
	fmt.Printf("local DRAM latency:        %.0f ns\n", m.DemandLatencyNs(0, 0))
	fmt.Printf("cross-group DRAM latency:  %.0f ns\n", m.DemandLatencyNs(0, 5))
	fmt.Printf("...with prefetching:       %.1f ns\n", m.PrefetchedLatencyNs(0, 5))
	fmt.Printf("STREAM at the optimal 2:1: %v\n", m.Mem.SystemStream(memsys.ReadShare(2, 1)))
	fmt.Printf("random access, SMT8 x 4:   %v\n", m.RandomAccessBandwidth(8, 4))

	fmt.Println("\n== Regenerate Table III ==")
	rep, err := power8.Run("table3", m, power8.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range rep.Lines {
		fmt.Println(line)
	}
	fmt.Printf("\nall %d checks against the paper: passed=%v\n", len(rep.Checks), rep.Passed())
}
