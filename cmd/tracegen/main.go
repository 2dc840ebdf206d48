// Command tracegen emits a synthetic post-L3 memory trace for one core of
// a named workload in the repository's text trace format:
//
//	<gap> <hex line address> <r|w> <d|->
//
// Example:
//
//	tracegen -workload mcf -events 100000 > mcf.trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"accord/internal/sim"
	"accord/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "libquantum", "workload name (see -list)")
		coreID   = flag.Int("core", 0, "core whose stream to emit (matters for mixes)")
		cores    = flag.Int("cores", 16, "system core count")
		events   = flag.Int("events", 100000, "number of events to emit")
		scale    = flag.Int64("scale", 256, "capacity scale divisor (footprints follow)")
		seed     = flag.Int64("seed", 1, "generator seed")
		list     = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(workloads.Names(), "\n"))
		return
	}
	cfg := sim.Default()
	cfg.Cores = *cores
	cfg.Scale = *scale
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	wl, err := workloads.Get(*workload, *cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *coreID < 0 || *coreID >= *cores {
		fmt.Fprintf(os.Stderr, "core %d out of range [0,%d)\n", *coreID, *cores)
		os.Exit(2)
	}
	st := workloads.NewStream(wl.Specs[*coreID], cfg.AnchorLines(), *cores, workloads.StreamSeed(*seed, *coreID))

	fmt.Printf("# accord trace: workload=%s core=%d events=%d scale=1/%d seed=%d\n",
		*workload, *coreID, *events, *scale, *seed)
	if err := workloads.WriteTrace(os.Stdout, st, *events); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
