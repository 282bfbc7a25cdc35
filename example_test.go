package power8_test

import (
	"fmt"

	power8 "repro"
)

// The machine model answers the paper's headline questions directly.
func Example() {
	m := power8.NewE870()
	fmt.Printf("balance: %.2f FLOP/B\n", m.Spec.Balance())
	fmt.Printf("2:1 STREAM: %v\n", m.Mem.SystemStream(2.0/3))
	fmt.Printf("cross-group latency: %.0f ns\n", m.DemandLatencyNs(0, 5))
	// Output:
	// balance: 1.21 FLOP/B
	// 2:1 STREAM: 1472.7 GB/s
	// cross-group latency: 235 ns
}

// Every table and figure of the paper is a named experiment.
func ExampleRun() {
	m := power8.NewE870()
	rep, err := power8.Run("figure9", m, power8.RunOptions{Quick: true})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Lines[0])
	// Output:
	// peak compute: 2227.2 GFLOP/s   peak bandwidth: 1843.2 GB/s   balance point: 1.21 FLOP/B
}

// The roofline model bounds a kernel's attainable performance.
func ExampleRooflineFor() {
	main := power8.RooflineFor(power8.E870Spec())
	for _, k := range power8.RooflineKernels() {
		fmt.Printf("%-8s %6.0f GFLOP/s\n", k.Name, main.Attainable(k.OI).GFs())
	}
	// Output:
	// SpMV        307 GFLOP/s
	// Stencil     922 GFLOP/s
	// LBMHD      1843 GFLOP/s
	// 3D FFT     2227 GFLOP/s
}

// The application kernels run for real; here the Jaccard output-size
// phenomenon that motivates large-memory SMPs.
func ExampleAllPairsJaccard() {
	g := power8.NewRMAT(10, 7, true)
	st := power8.AllPairsJaccard(g, 1, nil)
	fmt.Printf("output is %.0fx the input\n",
		float64(st.OutputBytes)/float64(st.InputBytes()))
	// Output:
	// output is 14x the input
}

// Projections reach the scales the paper ran on 4 TB of memory.
func ExampleProjectTableVI() {
	rows := power8.ProjectTableVI(0)
	r := rows[1] // graphene-252, a cross-validated prediction
	fmt.Printf("%s: HF-Mem %.2fx faster than HF-Comp\n", r.Molecule, r.Speedup)
	// Output:
	// graphene-252: HF-Mem 6.57x faster than HF-Comp
}
